package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"photoloop/internal/albireo"
	"photoloop/internal/exp"
	"photoloop/internal/explore"
	"photoloop/internal/mapper"
	"photoloop/internal/sweep"
)

const (
	// figsSearchWorkers pins the per-search worker pool: the cross-worker
	// duplicate draws are part of the measured work.
	figsSearchWorkers = 2
	// figsExploreBudget is the explore run's design-point budget.
	figsExploreBudget = 50
	// figsSeedPeriod is how many distinct pass seeds a run cycles
	// through; pass i repeats pass i-figsSeedPeriod, so their digests
	// must match.
	figsSeedPeriod = 4
	// figsHeapPasses is how many passes peak_heap_mb watches: a fixed
	// count, because the peak of more samples is higher.
	figsHeapPasses = 4
)

// mixSeed derives a positive sub-seed from a workload seed and a salt
// (splitmix64 finalizer).
func mixSeed(seed int64, salt uint64) int64 {
	x := uint64(seed) + (salt+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>24) + 1
}

func figsPassSeed(seed int64, pass int) int64 {
	return mixSeed(seed, uint64(pass%figsSeedPeriod))
}

func figsConfig(seed int64) exp.Config {
	return exp.Config{Seed: seed, Workers: figsSearchWorkers}
}

func figsExploreSpec(seed int64, budget, mapperBudget int) explore.Spec {
	return explore.Spec{
		Name:          "perfbench-figs",
		Base:          sweep.Base{Preset: "albireo"},
		Axes:          explore.DefaultAlbireoAxes(),
		Workload:      sweep.Workload{Network: "resnet18"},
		Budget:        budget,
		MapperBudget:  mapperBudget,
		Seed:          seed,
		SearchWorkers: figsSearchWorkers,
	}
}

// figsPass is one pass's outputs and host times.
type figsPass struct {
	fig4     *exp.Fig4Result
	fig5     *exp.Fig5Result
	frontier *explore.Frontier
	d4, d5   time.Duration
	dx       time.Duration
}

func (p *figsPass) total() time.Duration { return p.d4 + p.d5 + p.dx }

// runFigsPass regenerates Fig 4 and Fig 5 at the default per-layer budget
// and runs one explore, recording a span around each call when traced.
// cache, when non-nil, backs the explore run.
func runFigsPass(seed int64, cache *mapper.Cache, tr *tracer) (*figsPass, error) {
	p := &figsPass{}
	cfg := figsConfig(seed)
	start := time.Now()
	f4, err := exp.Fig4(cfg)
	t4 := time.Now()
	if err != nil {
		return nil, err
	}
	f5, err := exp.Fig5(cfg)
	t5 := time.Now()
	if err != nil {
		return nil, err
	}
	front, err := explore.Run(figsExploreSpec(seed, figsExploreBudget, 0), explore.Options{Workers: 1, Cache: cache})
	tx := time.Now()
	if err != nil {
		return nil, err
	}
	root := tr.record("figs.pass", 0, 0, start, tx).ID
	tr.record("exp.fig4", root, 0, start, t4)
	tr.record("exp.fig5", root, 0, t4, t5)
	tr.record("explore.run", root, 0, t5, tx)
	p.fig4, p.fig5, p.frontier = f4, f5, front
	p.d4, p.d5, p.dx = t4.Sub(start), t5.Sub(t4), tx.Sub(t5)
	return p, nil
}

// checkFigsPass holds a pass to the paper's claim bands and to a
// complete exploration.
func checkFigsPass(p *figsPass) error {
	c := albireo.Claims()
	f4, f5, f := p.fig4, p.fig5, p.frontier
	switch {
	case f4.AggressiveBaselineDRAMShare < c.Fig4AggressiveDRAMShareLo || f4.AggressiveBaselineDRAMShare > c.Fig4AggressiveDRAMShareHi:
		return fmt.Errorf("fig4: aggressive DRAM share %.3f outside [%.2f, %.2f]", f4.AggressiveBaselineDRAMShare, c.Fig4AggressiveDRAMShareLo, c.Fig4AggressiveDRAMShareHi)
	case f4.ConservativeBaselineDRAMShare > c.Fig4ConservativeDRAMShareHi:
		return fmt.Errorf("fig4: conservative DRAM share %.3f above %.2f", f4.ConservativeBaselineDRAMShare, c.Fig4ConservativeDRAMShareHi)
	case f4.AggressiveCombinedReduction < c.Fig4CombinedReductionLo:
		return fmt.Errorf("fig4: combined reduction %.3f below %.2f", f4.AggressiveCombinedReduction, c.Fig4CombinedReductionLo)
	case f5.BestConverterReduction < c.Fig5ConverterReductionLo:
		return fmt.Errorf("fig5: converter reduction %.3f below %.2f", f5.BestConverterReduction, c.Fig5ConverterReductionLo)
	case f5.BestAcceleratorReduction < c.Fig5AcceleratorReductionLo:
		return fmt.Errorf("fig5: accelerator reduction %.3f below %.2f", f5.BestAcceleratorReduction, c.Fig5AcceleratorReductionLo)
	case f.Evals != figsExploreBudget || f.Infeasible != 0 || len(f.Points) == 0:
		return fmt.Errorf("explore: %d evals (%d infeasible), %d frontier points; want %d feasible evals and a frontier",
			f.Evals, f.Infeasible, len(f.Points), figsExploreBudget)
	}
	return nil
}

// digest hashes a pass's results (not its host times or cache counters).
func (p *figsPass) digest() ([32]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(p.fig4); err != nil {
		return [32]byte{}, err
	}
	if err := enc.Encode(p.fig5); err != nil {
		return [32]byte{}, err
	}
	f, err := frontierJSON(p.frontier)
	if err != nil {
		return [32]byte{}, err
	}
	buf.Write(f)
	return sha256.Sum256(buf.Bytes()), nil
}

// frontierJSON encodes a frontier without its cache counters, which
// describe the cache the run used rather than the result.
func frontierJSON(f *explore.Frontier) ([]byte, error) {
	g := *f
	g.CacheHits, g.CacheMisses = 0, 0
	var buf bytes.Buffer
	err := g.WriteJSON(&buf)
	return buf.Bytes(), err
}

// figsSetup builds every architecture the workload evaluates (indexed
// for the model timing) and runs one warm-up pass at a tiny budget, so
// the process-wide mapper sessions exist before timing starts.
func figsSetup() (*archIndex, error) {
	x := newArchIndex()
	cfg := figsConfig(1)
	for _, sp := range []sweep.Spec{exp.Fig4SweepSpec(cfg), exp.Fig5SweepSpec(cfg)} {
		if err := x.addSweep(sp); err != nil {
			return nil, err
		}
	}
	if err := x.addExploreAxes(albireo.Default(albireo.Conservative), explore.DefaultAlbireoAxes()); err != nil {
		return nil, err
	}
	warm := exp.Config{Budget: 20, Seed: 1 << 50, Workers: figsSearchWorkers}
	if _, err := exp.Fig4(warm); err != nil {
		return nil, err
	}
	if _, err := exp.Fig5(warm); err != nil {
		return nil, err
	}
	if _, err := explore.Run(figsExploreSpec(1<<50, 8, 20), explore.Options{Workers: 1}); err != nil {
		return nil, err
	}
	return x, nil
}

// figsCollection is the outcome of re-running one pass's searches from
// outside the figure harnesses, through caches the benchmark observes.
type figsCollection struct {
	obs      []*observer
	tiers    mapper.TierStats
	frontier *explore.Frontier
	rerun    []span // the fig4/fig5 re-run spans (zero when untraced)
	whole    span   // the whole collection (zero when untraced)
}

func (c *figsCollection) bests() []*mapper.Best {
	var out []*mapper.Best
	for _, o := range c.obs {
		out = append(out, o.computed()...)
	}
	return out
}

func (c *figsCollection) keys() []mapper.Key {
	var out []mapper.Key
	for _, o := range c.obs {
		out = append(out, o.keys()...)
	}
	return out
}

// collectFigs runs the pass's Fig 4 and Fig 5 sweeps (the specs the
// harnesses run) and its explore through observed caches. The fig
// re-runs must reproduce the harness rows in p bit for bit, when given.
func collectFigs(seed int64, p *figsPass, tr *tracer) (*figsCollection, error) {
	c := &figsCollection{}
	cfg := figsConfig(seed)
	start := time.Now()
	for i, sp := range []sweep.Spec{exp.Fig4SweepSpec(cfg), exp.Fig5SweepSpec(cfg)} {
		obs := newObserver(nil, tr)
		cache := mapper.NewCache()
		cache.SetPersister(obs)
		t0 := time.Now()
		res, err := sweep.Run(sp, sweep.Options{Cache: cache})
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		c.rerun = append(c.rerun, tr.record("sweep.rerun_"+sp.Name, 0, 0, t0, t1))
		c.obs = append(c.obs, obs)
		c.tiers = addTiers(c.tiers, cache.TierStats())
		if p != nil {
			if err := matchRows(i, res, p); err != nil {
				return nil, err
			}
		}
	}
	obs := newObserver(nil, tr)
	cache := mapper.NewCache()
	cache.SetPersister(obs)
	f, err := explore.Run(figsExploreSpec(seed, figsExploreBudget, 0), explore.Options{Workers: 1, Cache: cache})
	if err != nil {
		return nil, err
	}
	c.obs = append(c.obs, obs)
	c.tiers = addTiers(c.tiers, cache.TierStats())
	c.frontier = f
	c.whole = tr.record("figs.collect", 0, 0, start, time.Now())
	if p != nil {
		x, err := frontierJSON(f)
		if err != nil {
			return nil, err
		}
		y, err := frontierJSON(p.frontier)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(x, y) {
			return nil, fmt.Errorf("explore re-run frontier differs from the pass's")
		}
	}
	return c, nil
}

// matchRows checks a re-run sweep against the harness rows of the pass.
func matchRows(fig int, res *sweep.Result, p *figsPass) error {
	var want []float64
	if fig == 0 {
		for _, r := range p.fig4.Rows {
			want = append(want, r.PJPerMAC)
		}
	} else {
		for _, r := range p.fig5.Rows {
			want = append(want, r.AccelPJPerMAC)
		}
	}
	if len(want) != len(res.Points) {
		return fmt.Errorf("fig%d re-run: %d points, harness has %d rows", fig+4, len(res.Points), len(want))
	}
	for i, pt := range res.Points {
		got := pt.Total.PJPerMAC()
		if fig == 1 {
			got = albireo.AcceleratorPJ(pt.Total) / float64(pt.Total.MACs)
		}
		if got != want[i] {
			return fmt.Errorf("fig%d re-run point %d: %v pJ/MAC, harness row says %v", fig+4, i, got, want[i])
		}
	}
	return nil
}

// figsLoop runs passes until the deadline (at least one), checking each
// and calling after, when set, once each pass is done. digests persist
// across calls so a traced half can check against the untraced half.
func figsLoop(o *options, rep *report, tr *tracer, cache func() *mapper.Cache, digests map[int][32]byte, after func(int)) ([]*figsPass, error) {
	var passes []*figsPass
	dl := deadline(o)
	for i := 0; i == 0 || time.Now().Before(dl); i++ {
		p, err := runFigsPass(figsPassSeed(o.seed, i), cache(), tr)
		if err != nil {
			rep.op(err)
			return passes, err
		}
		err = checkFigsPass(p)
		if err == nil {
			var d [32]byte
			if d, err = p.digest(); err == nil {
				slot := i % figsSeedPeriod
				if prev, ok := digests[slot]; ok && prev != d {
					err = fmt.Errorf("pass %d: result digest differs from the earlier pass with the same seed", i)
				}
				digests[slot] = d
			}
		}
		rep.op(err)
		passes = append(passes, p)
		if after != nil {
			after(i)
		}
	}
	return passes, nil
}

func runFigs(o *options, rep *report) error {
	rep.Host.SearchWorkers, rep.Host.PointWorkers, rep.Host.Clients = figsSearchWorkers, 1, 1
	zeroLayers(rep)
	idx, setupS, err := timedSetup(figsSetup, nil)
	if err != nil {
		return err
	}
	setE2E(rep, "setup_s", setupS)
	digests := map[int][32]byte{}
	noCache := func() *mapper.Cache { return nil }

	if !o.trace {
		cal := &calibration{}
		cal.take(3)
		heap := startHeapSampler()
		passes, err := figsLoop(o, rep, nil, noCache, digests, func(i int) {
			if i == figsHeapPasses-1 {
				heap.peakMB()
			}
			cal.take(2)
		})
		peak := heap.peakMB()
		if err != nil {
			return reportPartial(rep, err)
		}
		var fast, slow []float64
		total := 0.0
		for _, p := range passes {
			fast = append(fast, millis(p.d4+p.d5))
			slow = append(slow, millis(p.dx))
			total += seconds(p.total())
		}
		reportTimes(rep, cal, float64(len(passes))/total, median(fast), median(slow))
		setE2E(rep, "peak_heap_mb", peak)
		rep.Notes["passes"] = len(passes)
		col, err := collectFigs(figsPassSeed(o.seed, 0), passes[0], nil)
		rep.op(err)
		if err != nil {
			return reportPartial(rep, err)
		}
		setE2E(rep, "mapping_pj_per_mac", pjPerMAC(col.bests()))
		rep.Notes["pj_searches"] = len(col.bests())
		return nil
	}

	// Traced run: the first half of the window is untraced, the second
	// traced, over the same pass seeds; their per-pass times give the
	// tracing overhead.
	half := *o
	half.seconds = o.seconds / 2
	base, err := figsLoop(&half, rep, nil, noCache, digests, nil)
	if err != nil {
		return reportPartial(rep, err)
	}
	tr := newTracer()
	tr.on.Store(true)
	tracedCache := func() *mapper.Cache {
		c := mapper.NewCache()
		c.SetPersister(newObserver(nil, tr))
		return c
	}
	traced, err := figsLoop(&half, rep, tr, tracedCache, digests, nil)
	if err != nil {
		return reportPartial(rep, err)
	}
	setLayer(rep, "trace.overhead_frac", overhead(passTimes(base), passTimes(traced)))
	setLayer(rep, "exp.fig4_s", median(tr.durationsMS("exp.fig4"))/1e3)
	setLayer(rep, "exp.fig5_s", median(tr.durationsMS("exp.fig5"))/1e3)
	setLayer(rep, "explore.run_s", median(tr.durationsMS("explore.run"))/1e3)

	// The per-search breakdown comes from re-running pass 0's searches
	// through observed caches, outside the timed passes.
	col, err := collectFigs(figsPassSeed(o.seed, 0), base[0], tr)
	rep.op(err)
	if err != nil {
		return reportPartial(rep, err)
	}
	// Only the collection's own searches: the traced passes' explore runs
	// recorded search spans too.
	var searches []span
	var searchMS []float64
	for _, s := range tr.named("mapper.search") {
		if s.Start >= col.whole.Start && s.End <= col.whole.End {
			searches = append(searches, s)
			searchMS = append(searchMS, s.ms())
		}
	}
	self := 0.0
	for _, r := range col.rerun {
		self += selfMS(r, searches)
	}
	setLayer(rep, "mapper.search_ms", median(searchMS))
	setLayer(rep, "sweep.self_s", self/1e3)
	setLayer(rep, "mapper.search_share", ratio(sum(searchMS), col.whole.ms()))
	funnelOf(col.bests()).report(rep)
	reportTiers(rep, col.tiers)
	setLayer(rep, "explore.points", float64(col.frontier.Evals))
	setLayer(rep, "explore.surrogate_kept_frac", ratio(float64(col.frontier.SurrogateKept), float64(col.frontier.SurrogateRanked)))
	timeModel(rep, idx, col.keys(), col.bests())
	checkAllocs(rep)
	if err := timeToQuality(rep); err != nil {
		rep.op(err)
	}
	setLayer(rep, "trace.spans", float64(len(tr.spans)))
	rep.Notes["passes_untraced"], rep.Notes["passes_traced"] = len(base), len(traced)
	return writeTrace(o, tr)
}

func passTimes(ps []*figsPass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = millis(p.total())
	}
	return out
}
