package sweep

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"photoloop/internal/arch"
	"photoloop/internal/fidelity"
	"photoloop/internal/mapper"
	"photoloop/internal/presets"
	"photoloop/internal/workload"
)

// buildCounts counts, from a call until its stop function, the zoo
// networks and preset architectures the sweep memos build and the mapper
// sessions the process builds. An Albireo configuration's architecture is
// built only together with its session. Tests using it must not run in
// parallel.
func buildCounts() (stop func() (zoo, presetArchs int64, sessions uint64)) {
	var nZoo, nPreset atomic.Int64
	zooBuild, presetBuild := buildZooNetwork, buildPreset
	buildZooNetwork = func(e workload.ZooEntry) workload.Network {
		nZoo.Add(1)
		return zooBuild(e)
	}
	buildPreset = func(p *presets.Preset) (*arch.Arch, error) {
		nPreset.Add(1)
		return presetBuild(p)
	}
	sessions := mapper.SessionsBuilt()
	return func() (int64, int64, uint64) {
		buildZooNetwork, buildPreset = zooBuild, presetBuild
		return nZoo.Load(), nPreset.Load(), mapper.SessionsBuilt() - sessions
	}
}

// resetZooMemo forgets every memoized zoo network.
func resetZooMemo() {
	for name, e := range zooMemo {
		zooMemo[name] = &zooEntry{ZooEntry: e.ZooEntry}
	}
}

// encodeEval runs a request and encodes its response as the server does.
func encodeEval(t testing.TB, req *EvalRequest, cache *mapper.Cache) []byte {
	t.Helper()
	resp, err := Eval(req, cache)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := EncodeResponseJSON(&b, resp); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// repeatRequests cover both evaluation paths: Albireo presets and bases
// through albireo.EvalNetwork, the electrical baseline through its own
// search.
func repeatRequests() []EvalRequest {
	return []EvalRequest{
		{Preset: "albireo", Network: "resnet18", Budget: 30, Seed: 1, Workers: 1},
		{Preset: "electrical-baseline", Network: "resnet18", Budget: 30, Seed: 1, Workers: 1},
		{Albireo: &AlbireoBase{Scaling: "aggressive"}, Network: "bert_base", Batch: 4, Budget: 30, Seed: 2, Workers: 1, Fidelity: &fidelity.Spec{}},
		{Preset: "albireo-wdm-wide", Network: "alexnet", Layer: "conv2", Objective: "edp", Budget: 30, Seed: 3, Workers: 1},
	}
}

// requestName labels a request in failure messages.
func requestName(req *EvalRequest) string {
	arch := req.Preset
	if req.Albireo != nil {
		arch = "albireo base " + req.Albireo.Scaling
	}
	return arch + "/" + req.Network
}

// TestRepeatEvalBuildsNothing: once a request has been served, repeating
// it builds no zoo network, no architecture and no mapper session, and
// encodes the same bytes.
func TestRepeatEvalBuildsNothing(t *testing.T) {
	cache := mapper.NewCache()
	for _, req := range repeatRequests() {
		name := requestName(&req)
		first := encodeEval(t, &req, cache)
		stop := buildCounts()
		again := encodeEval(t, &req, cache)
		if zoo, archs, sessions := stop(); zoo != 0 || archs != 0 || sessions != 0 {
			t.Errorf("%s: repeat built %d zoo networks, %d preset architectures and %d sessions, want none", name, zoo, archs, sessions)
		}
		if !bytes.Equal(again, first) {
			t.Errorf("%s: repeat response differs from the first", name)
		}
	}
}

// TestNetworksEndpointBuildsOnce: GET /v1/networks builds each zoo network
// once per process and reports what building the network afresh gives.
func TestNetworksEndpointBuildsOnce(t *testing.T) {
	resetZooMemo()
	srv := NewServer()
	get := func() []networkInfo {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/networks", nil))
		var out []networkInfo
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	stop := buildCounts()
	first := get()
	if zoo, _, _ := stop(); zoo != int64(len(workload.ZooEntries())) {
		t.Errorf("first listing built %d zoo networks, want one per entry (%d)", zoo, len(workload.ZooEntries()))
	}
	stop = buildCounts()
	again := get()
	if zoo, _, _ := stop(); zoo != 0 {
		t.Errorf("second listing built %d zoo networks, want 0", zoo)
	}
	for _, info := range first {
		n, err := workload.ByName(info.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if info.Layers != len(n.Layers) || info.MACs != n.MACs() || info.Weights != n.WeightElems() {
			t.Errorf("%s: listed %+v, built network disagrees", info.Name, info)
		}
	}
	if !reflect.DeepEqual(again, first) {
		t.Error("second listing differs from the first")
	}
}

// TestConcurrentFirstEvalSharesBuilds: goroutines sending the same
// first-seen request share one build of its zoo network and of its
// Albireo architecture and session, and all encode the same bytes.
func TestConcurrentFirstEvalSharesBuilds(t *testing.T) {
	const n = 6
	for _, req := range repeatRequests() {
		resetZooMemo()
		cache := mapper.NewCache()
		out := make([][]byte, n)
		stop := buildCounts()
		var wg sync.WaitGroup
		for g := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[g] = encodeEval(t, &req, cache)
			}()
		}
		wg.Wait()
		zoo, _, sessions := stop()
		name := requestName(&req)
		if zoo != 1 {
			t.Errorf("%s: %d callers built the zoo network %d times, want once", name, n, zoo)
		}
		if req.Preset != "electrical-baseline" && sessions > 1 {
			t.Errorf("%s: %d callers built %d sessions, want at most one", name, n, sessions)
		}
		for g := 1; g < n; g++ {
			if !bytes.Equal(out[g], out[0]) {
				t.Errorf("%s: caller %d's response differs from caller 0's", name, g)
			}
		}
	}
}

// evalRepeatAllocBound caps the allocations of a repeat resnet18 request,
// evaluated and encoded: 77 measured on albireo and 52 on the electrical
// baseline (GOMAXPROCS 1, 2 and 8 alike), plus headroom. Rebuilding the
// zoo network, the architecture and the mapper session, copying cached
// Bests and re-indenting marshalled JSON made it 736 and 353.
const evalRepeatAllocBound = 100

// TestEvalRepeatAllocs gates the allocations of a repeat /v1/eval: every
// input comes from a memo and every layer from the cache's memory tier.
func TestEvalRepeatAllocs(t *testing.T) {
	cache := mapper.NewCache()
	for _, p := range []string{"albireo", "electrical-baseline"} {
		req := EvalRequest{Preset: p, Network: "resnet18", Budget: 60, Seed: 1, Workers: 1}
		encodeEval(t, &req, cache)
		allocs := testing.AllocsPerRun(20, func() {
			resp, err := Eval(&req, cache)
			if err != nil {
				t.Fatal(err)
			}
			if err := EncodeResponseJSON(io.Discard, resp); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per repeat request", p, allocs)
		if allocs > evalRepeatAllocBound {
			t.Errorf("%s: repeat request: %.0f allocs, bound %d", p, allocs, evalRepeatAllocBound)
		}
	}
}

// BenchmarkRepeatEval measures a repeat resnet18 /v1/eval in process:
// the evaluation served from the cache's memory tier, and its encoding.
func BenchmarkRepeatEval(b *testing.B) {
	for _, p := range []string{"albireo", "electrical-baseline"} {
		b.Run(p, func(b *testing.B) {
			cache := mapper.NewCache()
			req := EvalRequest{Preset: p, Network: "resnet18", Budget: 60, Seed: 1, Workers: 1}
			encodeEval(b, &req, cache)
			b.ReportAllocs()
			for b.Loop() {
				resp, err := Eval(&req, cache)
				if err != nil {
					b.Fatal(err)
				}
				if err := EncodeResponseJSON(io.Discard, resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
