package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"photoloop/internal/mapper"
	"photoloop/internal/presets"
	"photoloop/internal/sweep"
)

const (
	// evalClients is the number of closed-loop clients.
	evalClients = 2
	// evalRepeatShare is the probability that a request repeats an
	// earlier one. It sits above one half so the median request is a
	// repeat (a cache hit) and the first-seen requests own the tail.
	evalRepeatShare = 0.6
	// evalBudget is every request's per-layer search budget.
	evalBudget = 300
	// evalSearchWorkers pins each request's per-search workers; two
	// clients then use the two cores.
	evalSearchWorkers = 1
	// evalCacheLimit is sweep.Server's cache size, past which the cache
	// epoch-flushes; a run stays far below it.
	evalCacheLimit = 1 << 16
	// evalMinRequests is how many requests each client sends at least,
	// however short the window, so both request classes are sampled.
	evalMinRequests = 10
	// evalSegment is how long the clients run between calibration
	// samples.
	evalSegment = 2 * time.Second
	// evalHeapAt is the request after which peak_heap_mb is read: the
	// cache only grows, so the live heap then is the peak over a fixed
	// amount of work, not over however many requests the host served.
	evalHeapAt = 2000
	// evalWarmSeed seeds the set-up requests; measured requests never
	// draw it.
	evalWarmSeed = 1 << 50
)

var (
	// evalNetworks spans conv-era CNNs and transformers while keeping the
	// distinct layer shapes per request (each one a cache entry) few
	// enough that a run's cache stays far below evalCacheLimit.
	evalNetworks   = []string{"alexnet", "resnet18", "vgg16", "bert_base", "gpt2_small"}
	evalObjectives = []string{"energy", "delay", "edp"}
	evalBatches    = []int{1, 4}
)

// evalPopulation is every (network, preset, objective, batch) request
// shape of the mix.
func evalPopulation() []sweep.EvalRequest {
	var out []sweep.EvalRequest
	for _, n := range evalNetworks {
		for _, p := range presets.Names() {
			for _, o := range evalObjectives {
				for _, b := range evalBatches {
					out = append(out, sweep.EvalRequest{Preset: p, Network: n, Objective: o, Batch: b,
						Budget: evalBudget, Workers: evalSearchWorkers})
				}
			}
		}
	}
	return out
}

// evalGen generates the request sequence of a seed. First-seen requests
// walk the population in seeded shuffled blocks, each with a fresh mapper
// seed, so every block of len(population) first-seen requests covers every
// request shape once; they draw from their own stream, so the k-th
// first-seen request does not depend on how long the run was. Repeats
// pick a uniformly random earlier first-seen request.
type evalGen struct {
	mu       sync.Mutex
	mix      *rand.Rand // repeat decisions and picks
	fresh    *rand.Rand // first-seen requests
	pop      []sweep.EvalRequest
	perm     []int
	distinct [][]byte // request bodies
	seeds    map[int64]bool
	total    int
}

func newEvalGen(seed int64) *evalGen {
	return &evalGen{
		mix:   rand.New(rand.NewPCG(uint64(seed), 0x6d6978)),
		fresh: rand.New(rand.NewPCG(uint64(seed), 0x66726573)),
		pop:   evalPopulation(),
		seeds: map[int64]bool{},
	}
}

// next returns the next request of the sequence: its position, the index
// of the first-seen request it is or repeats, and whether it repeats.
func (g *evalGen) next() (pos, d int, repeat bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	pos = g.total
	g.total++
	if len(g.distinct) > 0 && g.mix.Float64() < evalRepeatShare {
		return pos, g.mix.IntN(len(g.distinct)), true
	}
	return pos, g.newDistinct(), false
}

// body returns the k-th first-seen request's body, generating up to it.
func (g *evalGen) body(k int) []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.distinct) <= k {
		g.newDistinct()
	}
	return g.distinct[k]
}

func (g *evalGen) newDistinct() int {
	if len(g.perm) == 0 {
		g.perm = g.fresh.Perm(len(g.pop))
	}
	req := g.pop[g.perm[0]]
	g.perm = g.perm[1:]
	for {
		req.Seed = g.fresh.Int64N(1<<40) + 1
		if !g.seeds[req.Seed] {
			break
		}
	}
	g.seeds[req.Seed] = true
	body, err := json.Marshal(&req)
	if err != nil {
		panic(err) // EvalRequest always marshals
	}
	g.distinct = append(g.distinct, body)
	return len(g.distinct) - 1
}

// evalFixture is the serving side: an in-process sweep.Server on a
// loopback listener, and the clients' HTTP client.
type evalFixture struct {
	srv       *sweep.Server
	obs       *observer
	hs        *http.Server
	url       string
	base      *http.Transport
	client    *http.Client
	transport *tracedTransport
	served    chan struct{}
}

func startEvalFixture(tr *tracer) (*evalFixture, error) {
	f := &evalFixture{srv: sweep.NewServer(), served: make(chan struct{})}
	var h http.Handler = f.srv
	var rt http.RoundTripper
	f.base = &http.Transport{MaxIdleConnsPerHost: 2 * evalClients, DisableCompression: true}
	rt = f.base
	if tr != nil {
		f.obs = newObserver(nil, tr)
		f.srv.SearchCache().SetPersister(f.obs)
		h = tracedHandler{h: f.srv, tr: tr}
		f.transport = &tracedTransport{rt: f.base, tr: tr}
		rt = f.transport
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.hs = &http.Server{Handler: h}
	go func() {
		defer close(f.served)
		f.hs.Serve(ln)
	}()
	f.url = "http://" + ln.Addr().String() + "/v1/eval"
	f.client = &http.Client{Transport: rt, Timeout: 2 * time.Minute}
	return f, nil
}

func (f *evalFixture) close() {
	f.hs.Shutdown(context.Background())
	<-f.served
	f.base.CloseIdleConnections()
}

// post sends one request body and returns the response body.
func (f *evalFixture) post(body []byte, id int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, f.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.Itoa(id))
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/eval: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// evalSetup builds the architectures of every preset and the layers of
// every network of the mix, starts the server, and sends one small
// request per (network, preset) pair.
func evalSetup(tr *tracer) func() (*evalFixture, error) {
	return func() (*evalFixture, error) {
		if _, err := evalIndex(); err != nil {
			return nil, err
		}
		f, err := startEvalFixture(tr)
		if err != nil {
			return nil, err
		}
		for _, n := range evalNetworks {
			for _, p := range presets.Names() {
				body, _ := json.Marshal(sweep.EvalRequest{Preset: p, Network: n, Budget: 20, Seed: evalWarmSeed, Workers: evalSearchWorkers})
				if _, err := f.post(body, 0); err != nil {
					f.close()
					return nil, err
				}
			}
		}
		return f, nil
	}
}

// evalIndex indexes the presets' architectures and the mix's layers.
func evalIndex() (*archIndex, error) {
	x := newArchIndex()
	for _, p := range presets.All() {
		a, err := p.Build()
		if err != nil {
			return nil, err
		}
		x.archs[a.Fingerprint()] = a
	}
	for _, n := range evalNetworks {
		for _, b := range evalBatches {
			if err := x.addNetwork(n, b); err != nil {
				return nil, err
			}
		}
	}
	return x, nil
}

// evalSample is one completed request.
type evalSample struct {
	d      int
	repeat bool
	ms     float64
	hash   [32]byte
	err    error
}

// evalLoop runs the closed-loop clients until the deadline, in segments
// of evalSegment. Between segments the clients are idle and cal, when
// set, samples the host's speed. When heapMB is set, the client that
// completes request number evalHeapAt stores the live heap there. It
// returns the samples and the time the clients ran.
func evalLoop(o *options, f *evalFixture, g *evalGen, tr *tracer, cal *calibration, heapMB *float64) ([]evalSample, time.Duration) {
	end := deadline(o)
	var mu sync.Mutex
	var samples []evalSample
	var done atomic.Int64
	var busy time.Duration
	for seg := 0; ; seg++ {
		segEnd := time.Now().Add(evalSegment)
		if segEnd.After(end) {
			segEnd = end
		}
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < evalClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; (seg == 0 && n < evalMinRequests) || time.Now().Before(segEnd); n++ {
					pos, d, repeat := g.next()
					body := g.body(d)
					t0 := time.Now()
					resp, err := f.post(body, pos+1)
					t1 := time.Now()
					tr.record("client.request", 0, uint64(pos+1), t0, t1)
					s := evalSample{d: d, repeat: repeat, ms: millis(t1.Sub(t0)), err: err}
					if err == nil {
						s.hash = sha256.Sum256(resp)
					}
					mu.Lock()
					samples = append(samples, s)
					mu.Unlock()
					if heapMB != nil && done.Add(1) == evalHeapAt {
						*heapMB = liveHeapMB()
					}
				}
			}()
		}
		wg.Wait()
		busy += time.Since(start)
		if cal != nil {
			cal.take(2)
		}
		if !time.Now().Before(end) {
			return samples, busy
		}
	}
}

// expectedEval computes each listed first-seen request's response the
// way the server encodes it, on two goroutines. ref, when non-nil, backs
// the searches; it is never the server's cache. (First-seen requests
// share no search, so the run's check needs none.)
func expectedEval(g *evalGen, ds []int, ref *mapper.Cache) (map[int][32]byte, map[int]*sweep.EvalResponse, error) {
	hashes := map[int][32]byte{}
	resps := map[int]*sweep.EvalResponse{}
	var mu sync.Mutex
	var firstErr error
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range work {
				h, resp, err := evalReference(g.body(d), ref)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				hashes[d], resps[d] = h, resp
				mu.Unlock()
			}
		}()
	}
	for _, d := range ds {
		work <- d
	}
	close(work)
	wg.Wait()
	return hashes, resps, firstErr
}

// evalReference decodes a request body and evaluates it in process.
func evalReference(body []byte, cache *mapper.Cache) ([32]byte, *sweep.EvalResponse, error) {
	var req sweep.EvalRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return [32]byte{}, nil, err
	}
	resp, err := sweep.Eval(&req, cache)
	if err != nil {
		return [32]byte{}, nil, err
	}
	var buf bytes.Buffer
	if err := sweep.EncodeResponseJSON(&buf, resp); err != nil {
		return [32]byte{}, nil, err
	}
	return sha256.Sum256(buf.Bytes()), resp, nil
}

// checkEvalSamples compares every response with the reference response
// of the same request; each sample is one operation.
func checkEvalSamples(rep *report, samples []evalSample, want map[int][32]byte) {
	for _, s := range samples {
		err := s.err
		if err == nil && s.hash != want[s.d] {
			err = fmt.Errorf("eval: response to request %d differs from sweep.Eval's", s.d)
		}
		rep.op(err)
	}
}

func sampleMS(samples []evalSample, keep func(evalSample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, s.ms)
		}
	}
	return out
}

// evalPJPerMAC is the geometric mean of per-layer best-mapping pJ/MAC
// over the first len(population) first-seen requests — one request of
// every shape, so the mix's composition is the same for every seed.
func evalPJPerMAC(resps map[int]*sweep.EvalResponse, n int) float64 {
	var xs []float64
	for d := 0; d < n; d++ {
		if r := resps[d]; r != nil {
			for _, l := range r.Layers {
				xs = append(xs, l.PJPerMAC)
			}
		}
	}
	return geomean(xs)
}

func runEvalServe(o *options, rep *report) error {
	rep.Host.SearchWorkers, rep.Host.PointWorkers, rep.Host.Clients = evalSearchWorkers, 1, evalClients
	zeroLayers(rep)
	// A traced run measures its first half untraced, on this fixture.
	f, setupS, err := timedSetup(evalSetup(nil), (*evalFixture).close)
	if err != nil {
		return err
	}
	setE2E(rep, "setup_s", setupS)
	npop := len(evalPopulation())

	window := *o
	if o.trace {
		window.seconds = o.seconds / 2
	}
	g := newEvalGen(o.seed)
	cal := &calibration{}
	cal.take(3)
	heap := -1.0
	samples, elapsed := evalLoop(&window, f, g, nil, cal, &heap)
	if heap < 0 { // fewer than evalHeapAt requests
		heap = liveHeapMB()
	}
	hits, misses := f.srv.CacheStats()
	f.close()

	var traced []evalSample
	var ft *evalFixture
	var warmTiers mapper.TierStats
	var tr *tracer
	if o.trace {
		tr = newTracer()
		ft, err = evalSetup(tr)()
		if err != nil {
			return err
		}
		// Observe only the measured requests, not the set-up ones.
		ft.obs = newObserver(nil, tr)
		ft.srv.SearchCache().SetPersister(ft.obs)
		warmTiers = ft.srv.SearchCache().TierStats()
		tr.on.Store(true)
		traced, _ = evalLoop(&window, ft, newEvalGen(o.seed), tr, nil, nil)
		tr.on.Store(false)
		ft.close()
	}

	need := map[int]bool{}
	for d := 0; d < npop; d++ {
		need[d] = true
	}
	for _, s := range append(append([]evalSample(nil), samples...), traced...) {
		need[s.d] = true
	}
	ds := make([]int, 0, len(need))
	for d := range need {
		ds = append(ds, d)
	}
	want, resps, err := expectedEval(g, ds, nil)
	if err != nil {
		rep.op(err)
		return reportPartial(rep, err)
	}
	checkEvalSamples(rep, samples, want)
	checkEvalSamples(rep, traced, want)

	all := sampleMS(samples, func(evalSample) bool { return true })
	rep.Notes["samples"] = len(samples)
	rep.Notes["samples_beyond_p99"] = len(samples) / 100
	rep.Notes["latency_ms_p50"] = median(all)
	rep.Notes["latency_ms_p99"] = quantile(all, 0.99)
	repeats := sampleMS(samples, func(s evalSample) bool { return s.repeat })
	rep.Notes["repeat_share"] = ratio(float64(len(repeats)), float64(len(samples)))
	rep.Notes["cache_hits"], rep.Notes["cache_misses"] = hits, misses
	rep.Notes["cache_epoch_flush_reached"] = misses >= evalCacheLimit

	if !o.trace {
		reportTimes(rep, cal, float64(len(samples))/seconds(elapsed), median(repeats),
			median(sampleMS(samples, func(s evalSample) bool { return !s.repeat })))
		setE2E(rep, "mapping_pj_per_mac", evalPJPerMAC(resps, npop))
		setE2E(rep, "peak_heap_mb", heap)
		return nil
	}

	tall := sampleMS(traced, func(evalSample) bool { return true })
	setLayer(rep, "trace.overhead_frac", overhead(all, tall))
	server := tr.named("sweep.handler")
	serverMS := map[uint64]float64{}
	var sms []float64
	for _, s := range server {
		serverMS[s.Req] = s.ms()
		sms = append(sms, s.ms())
	}
	setLayer(rep, "sweep.server_ms_p50", median(sms))
	setLayer(rep, "sweep.server_ms_p99", quantile(sms, 0.99))
	var transport []float64
	for _, c := range tr.named("client.request") {
		if h, ok := serverMS[c.Req]; ok {
			transport = append(transport, c.ms()-h)
		}
	}
	setLayer(rep, "sweep.transport_ms_p50", median(transport))
	searchMS := reportSearchSpans(rep, tr)
	setLayer(rep, "mapper.search_share", ratio(searchMS, sum(tall)))
	funnelOf(ft.obs.computed()).report(rep)
	ts := ft.srv.SearchCache().TierStats()
	reportTiers(rep, mapper.TierStats{Hits: ts.Hits - warmTiers.Hits, DiskHits: ts.DiskHits - warmTiers.DiskHits, Misses: ts.Misses - warmTiers.Misses})
	setLayer(rep, "http.requests", float64(ft.transport.requests.Load()))
	setLayer(rep, "http.ms", median(tr.durationsMS("http.request")))
	idx, err := evalIndex()
	if err != nil {
		return err
	}
	timeModel(rep, idx, ft.obs.keys(), ft.obs.computed())
	checkAllocs(rep)
	if err := timeToQuality(rep); err != nil {
		rep.op(err)
	}
	setLayer(rep, "trace.spans", float64(len(tr.spans)))
	rep.Notes["samples_traced"] = len(traced)
	return writeTrace(o, tr)
}
