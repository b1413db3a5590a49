package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"

	"photoloop/internal/jobs"
	"photoloop/internal/mapper"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(gomaxprocs)
	os.Exit(m.Run())
}

// benchmarkDoc is the part of BENCHMARK.json the program must agree with.
type benchmarkDoc struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkDoc(t *testing.T) *benchmarkDoc {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	doc := &benchmarkDoc{}
	if err := json.Unmarshal(buf, doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkDocMatchesProgram pins BENCHMARK.json's workloads and
// metrics (names and units) to what the program reports.
func TestBenchmarkDocMatchesProgram(t *testing.T) {
	doc := readBenchmarkDoc(t)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !equalStrings(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(family string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", family, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), program has %s (%s)", family, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload for a minimal window, untraced and
// traced: every operation must pass and every declared metric appear.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range []string{"figs", "eval-serve", "sharded-job"} {
		for _, traced := range []bool{false, true} {
			name := wl + "/untraced"
			if traced {
				name = wl + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := &options{workload: wl, seed: 7, seconds: 0.01, trace: traced, work: t.TempDir()}
				rep, err := execute(o)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Attempted == 0 || rep.Failed != 0 {
					t.Fatalf("%d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.Failures)
				}
				got, defs := rep.EndToEnd, endToEndMetrics
				if traced {
					got, defs = rep.PerLayer, perLayerMetrics
				}
				for _, d := range defs {
					m, ok := got[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
					} else if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if traced && rep.PerLayer["model.allocs_per_eval"].Value != 0 {
					t.Errorf("model allocates on the per-candidate path")
				}
			})
		}
	}
}

// TestArtifactCheckRejectsFlippedByte tampers one byte of a real job
// artifact.
func TestArtifactCheckRejectsFlippedByte(t *testing.T) {
	ref, err := shardReference(t.TempDir(), shardSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkArtifact(ref.artifact, ref.artifact); err != nil {
		t.Fatalf("untampered artifact rejected: %v", err)
	}
	bad := bytes.Clone(ref.artifact)
	bad[len(bad)/2] ^= 0x01
	if checkArtifact(bad, ref.artifact) == nil {
		t.Error("artifact with a flipped byte accepted")
	}
}

// TestBodyCheckRejectsAlteredBody alters one byte of a real /v1/eval
// response body.
func TestBodyCheckRejectsAlteredBody(t *testing.T) {
	f, err := startEvalFixture(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	g := newEvalGen(5)
	body, err := f.post(g.body(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := expectedEval(g, []int{0}, mapper.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(&options{})
	checkEvalSamples(rep, []evalSample{{d: 0, hash: sha256.Sum256(body)}}, want)
	if rep.Failed != 0 {
		t.Fatalf("untampered body rejected: %v", rep.Failures)
	}
	altered := bytes.Clone(body)
	altered[len(altered)/2]++
	checkEvalSamples(rep, []evalSample{{d: 0, hash: sha256.Sum256(altered)}}, want)
	if rep.Failed != 1 {
		t.Error("altered body accepted")
	}
}

// TestWarmCheckRejectsOneMiss feeds the warm-run check a status with a
// single computed search.
func TestWarmCheckRejectsOneMiss(t *testing.T) {
	if err := checkWarm(&jobs.Status{Store: &mapper.TierStats{DiskHits: 40}}); err != nil {
		t.Fatalf("all-hit warm run rejected: %v", err)
	}
	if checkWarm(&jobs.Status{Store: &mapper.TierStats{DiskHits: 39, Misses: 1}}) == nil {
		t.Error("warm run with one miss accepted")
	}
	if checkWarm(&jobs.Status{}) == nil {
		t.Error("warm run without store traffic accepted")
	}
}

// TestFigsCheckRejectsOutOfBand moves a real pass outside the paper's
// claim bands.
func TestFigsCheckRejectsOutOfBand(t *testing.T) {
	p, err := runFigsPass(figsPassSeed(1, 0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFigsPass(p); err != nil {
		t.Fatalf("real pass rejected: %v", err)
	}
	f4 := *p.fig4
	f4.AggressiveBaselineDRAMShare = 0.1
	p.fig4 = &f4
	if checkFigsPass(p) == nil {
		t.Error("pass outside the Fig. 4 DRAM-share band accepted")
	}
}

// repeatable is what must come out identical from two runs of a seed.
type repeatable struct {
	funnel  funnel
	pj      float64
	records int
}

// TestExactRepeat computes each workload's deterministic counters twice
// per seed, on two seeds: the mapper funnel, mapping_pj_per_mac and the
// job's store records must repeat exactly.
func TestExactRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs every workload's searches")
	}
	collect := map[string]func(seed int64) (repeatable, error){
		"figs": func(seed int64) (repeatable, error) {
			c, err := collectFigs(figsPassSeed(seed, 0), nil, nil)
			if err != nil {
				return repeatable{}, err
			}
			return repeatable{funnel: funnelOf(c.bests()), pj: pjPerMAC(c.bests())}, nil
		},
		"eval-serve": func(seed int64) (repeatable, error) {
			obs := newObserver(nil, nil)
			cache := mapper.NewCache()
			cache.SetPersister(obs)
			n := len(evalPopulation())
			ds := make([]int, n)
			for i := range ds {
				ds[i] = i
			}
			_, resps, err := expectedEval(newEvalGen(seed), ds, cache)
			if err != nil {
				return repeatable{}, err
			}
			return repeatable{funnel: funnelOf(obs.computed()), pj: evalPJPerMAC(resps, n)}, nil
		},
		"sharded-job": func(seed int64) (repeatable, error) {
			ref, err := shardReference(t.TempDir(), shardSpec(seed))
			if err != nil {
				return repeatable{}, err
			}
			return repeatable{funnel: funnelOf(ref.bests), pj: pjPerMAC(ref.bests), records: len(ref.keys)}, nil
		},
	}
	for name, fn := range collect {
		for _, seed := range []int64{1, 2} {
			a, err := fn(seed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fn(seed)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("%s seed %d: runs differ:\n%+v\n%+v", name, seed, a, b)
			}
			if a.funnel.Searches == 0 || a.pj <= 0 {
				t.Errorf("%s seed %d: nothing measured: %+v", name, seed, a)
			}
		}
	}
}
