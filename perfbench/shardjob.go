package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"photoloop/internal/jobs"
	"photoloop/internal/mapper"
	"photoloop/internal/shard"
	"photoloop/internal/store"
	"photoloop/internal/sweep"
)

const (
	// shardSearchWorkers pins per-search workers: the coordinator's own
	// worker loop and the remote worker then use the two cores.
	shardSearchWorkers = 1
	// shardBudget is the job's per-layer search budget.
	shardBudget = 1000
	// shardPoll is the remote worker's idle wait between lease attempts.
	shardPoll = 5 * time.Millisecond
	// shardHeapCycles is how many cycles peak_heap_mb watches: a fixed
	// count, because the peak of more samples is higher.
	shardHeapCycles = 6
)

// shardSpec is the seeded sweep job: the bench-scaling grid (four
// output-lane by two pixel-lane Albireo variants) over three zoo
// networks, searched with a mapper seed drawn from the workload seed. The
// grid is fixed so that every seed asks for the same amount of work.
func shardSpec(seed int64) jobs.Spec {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6a6f62))
	return jobs.Spec{Sweep: &sweep.Spec{
		Name: "perfbench-job",
		Base: sweep.Base{Albireo: &sweep.AlbireoBase{}},
		Axes: []sweep.Axis{
			{Param: "output_lanes", Values: []any{3, 5, 7, 9}},
			{Param: "pixel_lanes", Values: []any{6, 12}},
		},
		Workloads:     []sweep.Workload{{Network: "resnet18"}, {Network: "vgg16"}, {Network: "alexnet"}},
		Budget:        shardBudget,
		Seed:          rng.Int64N(1<<40) + 1,
		SearchWorkers: shardSearchWorkers,
	}}
}

// shardRef is the unsharded single-process run of the job, computed
// during set-up: the artifact every sharded run must reproduce and the
// searches the job needs.
type shardRef struct {
	artifact []byte
	keys     []mapper.Key
	bests    []*mapper.Best
}

func shardReference(dir string, sp jobs.Spec) (*shardRef, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m, err := jobs.Open(dir)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	st, err := m.Submit(sp)
	if err != nil {
		return nil, err
	}
	if _, err := m.Run(context.Background(), st.ID); err != nil {
		return nil, err
	}
	ref := &shardRef{}
	if ref.artifact, err = m.Result(st.ID); err != nil {
		return nil, err
	}
	ref.keys = m.Store().Keys()
	sort.Slice(ref.keys, func(i, j int) bool {
		a, b := ref.keys[i], ref.keys[j]
		if a.Arch != b.Arch {
			return a.Arch < b.Arch
		}
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		return a.Opts < b.Opts
	})
	for _, k := range ref.keys {
		b, ok := m.Store().Load(k)
		if !ok {
			return nil, fmt.Errorf("reference store lost record %x", k)
		}
		ref.bests = append(ref.bests, b)
	}
	return ref, nil
}

// shardFixture is one cycle's topology: a fresh store directory under a
// jobs.Manager whose coordinator works its own leases, served over
// loopback, plus one shared-nothing remote worker.
type shardFixture struct {
	dir        string
	m          *jobs.Manager
	hs         *http.Server
	served     chan struct{}
	base       *http.Transport
	client     *shard.Client
	rp         *store.RemotePersister
	coord      *tracedCoord
	ws         *tracedStore
	transport  *tracedTransport
	cancel     context.CancelFunc
	workerDone chan error
}

func startShardFixture(dir string, tr *tracer) (*shardFixture, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	m, err := jobs.Open(dir)
	if err != nil {
		return nil, err
	}
	m.Shard = shard.NewCoordinator()
	m.ShardLocal = true
	m.Workers = 1
	srv := sweep.NewServer()
	jobs.Attach(srv, m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	f := &shardFixture{dir: dir, m: m, hs: &http.Server{Handler: srv}, served: make(chan struct{}), workerDone: make(chan error, 1)}
	go func() {
		defer close(f.served)
		f.hs.Serve(ln)
	}()
	url := "http://" + ln.Addr().String()
	f.base = &http.Transport{MaxIdleConnsPerHost: 4}
	var rt http.RoundTripper = f.base
	if tr != nil {
		f.transport = &tracedTransport{rt: f.base, tr: tr}
		rt = f.transport
	}
	hc := &http.Client{Transport: rt, Timeout: 30 * time.Second}
	f.rp = store.NewRemotePersister(url, hc)
	f.client = &shard.Client{Base: url, HTTP: hc}
	var coord shard.Coord = f.client
	var ws shard.WorkerStore = f.rp
	if tr != nil {
		f.coord = &tracedCoord{c: f.client, tr: tr}
		f.ws = newTracedStore(f.rp, tr)
		coord, ws = f.coord, f.ws
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go func() {
		f.workerDone <- shard.Work(ctx, coord, ws, shard.WorkerOptions{Poll: shardPoll})
	}()
	return f, nil
}

// close stops the worker and the server, waits for both, and removes the
// store directory.
func (f *shardFixture) close() error {
	f.cancel()
	werr := <-f.workerDone
	f.hs.Shutdown(context.Background())
	<-f.served
	f.base.CloseIdleConnections()
	cerr := f.m.Close()
	rerr := os.RemoveAll(f.dir)
	for _, err := range []error{werr, cerr, rerr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkArtifact requires a job artifact byte-identical to the reference.
func checkArtifact(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("job artifact (%d bytes) differs from the unsharded single-process run (%d bytes)", len(got), len(want))
	}
	return nil
}

// checkWarm requires a warm run that computed no search.
func checkWarm(st *jobs.Status) error {
	if st.Store == nil {
		return fmt.Errorf("warm run reported no store traffic")
	}
	if st.Store.Misses != 0 {
		return fmt.Errorf("warm run computed %d searches, want 0", st.Store.Misses)
	}
	return nil
}

// shardCycle is one measured cycle's outcome.
type shardCycle struct {
	cold, warm     time.Duration
	coldSt, warmSt *jobs.Status
	segments       int
	records        int
	bytes          int64
	uploaded       int
	flushes        int
	retries        int
}

// runShardCycle submits the job cold on a fresh fixture, then re-runs it
// warm; each phase is one checked operation.
func runShardCycle(o *options, rep *report, sp jobs.Spec, ref *shardRef, tr *tracer, n int) (*shardCycle, error) {
	f, err := startShardFixture(filepath.Join(o.work, "jobs", fmt.Sprintf("cycle-%d", n)), tr)
	if err != nil {
		return nil, err
	}
	c := &shardCycle{}
	ctx := context.Background()
	phase := func(name string) (*jobs.Status, time.Duration, error) {
		st, err := f.m.Submit(sp)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		st, err = f.m.Run(ctx, st.ID)
		end := time.Now()
		tr.record("jobs.run_"+name, 0, 0, start, end)
		if err != nil {
			return nil, 0, err
		}
		art, err := f.m.Result(st.ID)
		if err == nil {
			err = checkArtifact(art, ref.artifact)
		}
		return st, end.Sub(start), err
	}
	var coldErr, warmErr error
	c.coldSt, c.cold, coldErr = phase("cold")
	if coldErr == nil {
		c.segments, c.records = f.m.Store().Segments(), f.m.Store().Len()
		c.bytes = storeBytes(f.dir)
		c.uploaded = f.rp.Stats().Uploaded
		if c.segments != 1 {
			coldErr = fmt.Errorf("cold run left %d store segments, want 1 (the remote worker must not touch the directory)", c.segments)
		}
	}
	rep.op(coldErr)
	if coldErr == nil {
		c.warmSt, c.warm, warmErr = phase("warm")
		if warmErr == nil {
			warmErr = checkWarm(c.warmSt)
		}
		if up := f.rp.Stats().Uploaded; warmErr == nil && up != c.uploaded {
			warmErr = fmt.Errorf("warm run uploaded %d records, want 0", up-c.uploaded)
		}
		rep.op(warmErr)
	}
	st := f.rp.Stats()
	c.flushes, c.retries = st.Flushes, st.Retries+f.client.Retries()
	cerr := f.close()
	switch {
	case coldErr != nil:
		return c, coldErr
	case warmErr != nil:
		return c, warmErr
	}
	return c, cerr
}

// storeBytes sums the sizes of the store's log segments.
func storeBytes(dir string) int64 {
	matches, _ := filepath.Glob(filepath.Join(dir, "photoloop-store*.log"))
	total := int64(0)
	for _, p := range matches {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// shardLoop runs cycles until the deadline (at least one), calling
// after, when set, once each cycle is done.
func shardLoop(o *options, rep *report, sp jobs.Spec, ref *shardRef, tr *tracer, first int, after func(int)) ([]*shardCycle, error) {
	var cycles []*shardCycle
	dl := deadline(o)
	for i := first; i == first || time.Now().Before(dl); i++ {
		c, err := runShardCycle(o, rep, sp, ref, tr, i)
		if err != nil {
			return cycles, err
		}
		cycles = append(cycles, c)
		if after != nil {
			after(i)
		}
	}
	return cycles, nil
}

// shardSetupState is what set-up hands to the measured cycles.
type shardSetupState struct {
	sp  jobs.Spec
	ref *shardRef
	idx *archIndex
}

func runShardedJob(o *options, rep *report) error {
	rep.Host.SearchWorkers, rep.Host.PointWorkers, rep.Host.Clients = shardSearchWorkers, 1, 2
	zeroLayers(rep)
	setup := func() (*shardSetupState, error) {
		s := &shardSetupState{sp: shardSpec(o.seed), idx: newArchIndex()}
		if err := s.idx.addSweep(*s.sp.Sweep); err != nil {
			return nil, err
		}
		ref, err := shardReference(filepath.Join(o.work, "jobs", "reference"), s.sp)
		if err != nil {
			return nil, err
		}
		s.ref = ref
		// The first cycle's fixture is built and torn down once, so
		// set-up covers opening a store and starting a server and worker.
		f, err := startShardFixture(filepath.Join(o.work, "jobs", "setup"), nil)
		if err != nil {
			return nil, err
		}
		return s, f.close()
	}
	s, setupS, err := timedSetup(setup, nil)
	if err != nil {
		return err
	}
	setE2E(rep, "setup_s", setupS)
	rep.Notes["job_searches"] = len(s.ref.keys)

	if !o.trace {
		cal := &calibration{}
		cal.take(3)
		heap := startHeapSampler()
		cycles, err := shardLoop(o, rep, s.sp, s.ref, nil, 0, func(i int) {
			if i == shardHeapCycles-1 {
				heap.peakMB()
			}
			cal.take(1)
		})
		peak := heap.peakMB()
		if err != nil {
			return reportPartial(rep, err)
		}
		var cold, warm []float64
		total := 0.0
		for _, c := range cycles {
			cold = append(cold, millis(c.cold))
			warm = append(warm, millis(c.warm))
			total += seconds(c.cold + c.warm)
		}
		reportTimes(rep, cal, float64(2*len(cycles))/total, median(warm), median(cold))
		setE2E(rep, "mapping_pj_per_mac", pjPerMAC(s.ref.bests))
		setE2E(rep, "peak_heap_mb", peak)
		rep.Notes["cycles"] = len(cycles)
		return nil
	}

	half := *o
	half.seconds = o.seconds / 2
	base, err := shardLoop(&half, rep, s.sp, s.ref, nil, 0, nil)
	if err != nil {
		return reportPartial(rep, err)
	}
	tr := newTracer()
	tr.on.Store(true)
	traced, err := shardLoop(&half, rep, s.sp, s.ref, tr, len(base), nil)
	tr.on.Store(false)
	if err != nil {
		return reportPartial(rep, err)
	}
	coldMS := func(cs []*shardCycle) []float64 {
		var out []float64
		for _, c := range cs {
			out = append(out, millis(c.cold))
		}
		return out
	}
	setLayer(rep, "trace.overhead_frac", overhead(coldMS(base), coldMS(traced)))
	n := float64(len(traced))
	var tiers mapper.TierStats
	reassigned, uploaded, flushes, retries := 0, 0, 0, 0
	for _, c := range traced {
		tiers = addTiers(addTiers(tiers, *c.coldSt.Store), *c.warmSt.Store)
		for _, st := range []*jobs.Status{c.coldSt, c.warmSt} {
			if st.Shards != nil {
				reassigned += st.Shards.Reassigned
			}
		}
		uploaded += c.uploaded
		flushes += c.flushes
		retries += c.retries
	}
	last := traced[len(traced)-1]
	setLayer(rep, "shard.lease_ms", median(tr.durationsMS("shard.lease")))
	setLayer(rep, "shard.heartbeat_ms", median(tr.durationsMS("shard.heartbeat")))
	setLayer(rep, "shard.complete_ms", median(tr.durationsMS("shard.complete")))
	setLayer(rep, "shard.lease_wait_ms", sum(tr.durationsMS("shard.lease_wait"))/n)
	setLayer(rep, "shard.leases", float64(len(tr.named("shard.complete")))/n)
	setLayer(rep, "shard.reassigned", float64(reassigned))
	setLayer(rep, "store.load_us", 1e3*median(tr.durationsMS("store.load")))
	setLayer(rep, "store.store_us", 1e3*median(tr.durationsMS("store.store")))
	setLayer(rep, "store.upload_ms", ratio(sum(tr.durationsMS("store.flush")), float64(flushes)))
	setLayer(rep, "store.uploaded", float64(uploaded)/n)
	setLayer(rep, "store.flushes", float64(flushes)/n)
	setLayer(rep, "store.records", float64(last.records))
	setLayer(rep, "store.bytes", float64(last.bytes))
	setLayer(rep, "store.segments", float64(last.segments))
	enc, dec, err := timeCodec(s.ref.bests)
	rep.op(err)
	setLayer(rep, "store.encode_us", enc)
	setLayer(rep, "store.decode_us", dec)
	setLayer(rep, "retry.retries", float64(retries))
	setLayer(rep, "http.requests", float64(len(tr.named("http.request")))/n)
	setLayer(rep, "http.ms", median(tr.durationsMS("http.request")))
	searchMS := reportSearchSpans(rep, tr)
	setLayer(rep, "mapper.search_share", ratio(searchMS, sum(coldMS(traced))))
	funnelOf(s.ref.bests).report(rep)
	reportTiers(rep, tiers)
	timeModel(rep, s.idx, s.ref.keys, s.ref.bests)
	checkAllocs(rep)
	if err := timeToQuality(rep); err != nil {
		rep.op(err)
	}
	setLayer(rep, "trace.spans", float64(len(tr.spans)))
	rep.Notes["cycles_untraced"], rep.Notes["cycles_traced"] = len(base), len(traced)
	return writeTrace(o, tr)
}

// timeCodec times store.EncodeBest and store.DecodeBest over the job's
// records (µs per record, best of five sweeps) and checks the round trip.
func timeCodec(bests []*mapper.Best) (encUS, decUS float64, err error) {
	if len(bests) == 0 {
		return 0, 0, nil
	}
	payloads := make([][]byte, len(bests))
	for i, b := range bests {
		payloads[i] = store.EncodeBest(b)
	}
	for i, p := range payloads {
		d, err := store.DecodeBest(p)
		if err != nil {
			return 0, 0, err
		}
		if !bytes.Equal(store.EncodeBest(d), p) {
			return 0, 0, fmt.Errorf("store codec: record %d does not round-trip", i)
		}
	}
	encUS, decUS = -1, -1
	for i := 0; i < 5; i++ {
		start := time.Now()
		for _, b := range bests {
			store.EncodeBest(b)
		}
		mid := time.Now()
		for _, p := range payloads {
			store.DecodeBest(p)
		}
		end := time.Now()
		e := float64(mid.Sub(start).Nanoseconds()) / 1e3 / float64(len(bests))
		d := float64(end.Sub(mid).Nanoseconds()) / 1e3 / float64(len(bests))
		if encUS < 0 || e < encUS {
			encUS = e
		}
		if decUS < 0 || d < decUS {
			decUS = d
		}
	}
	return encUS, decUS, nil
}
