package main

import (
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"

	"photoloop/internal/albireo"
	"photoloop/internal/arch"
	"photoloop/internal/mapper"
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every untraced run, on every workload.
// The fast/slow split is each workload's warm and cold path: figure
// regeneration vs the explore run (figs), repeated vs first-seen requests
// (eval-serve), warm vs cold job runs (sharded-job). Timings other than
// setup_s are in calibration units (see calibration).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cal", "1/cal"},
	{"fast_cal_p50", "cal"},
	{"slow_cal_p50", "cal"},
	{"mapping_pj_per_mac", "pJ"},
	{"peak_heap_mb", "MB"},
}

// ttqBudgets are the search budgets of the time-to-quality curve.
var ttqBudgets = []int{125, 250, 500, 1000, 2000}

// perLayerMetrics are reported by every traced run, on every workload; a
// layer the workload never calls reports 0.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"model.evaluate_ns", "ns"}, {"model.stage_ns", "ns"}, {"model.finish_ns", "ns"},
		{"model.lower_bound_ns", "ns"}, {"model.allocs_per_eval", "count"}, {"model.pairs", "count"},
		{"mapper.search_ms", "ms"}, {"mapper.search_share", "ratio"}, {"mapper.searches", "count"},
		{"mapper.evaluations", "count"}, {"mapper.pruned_frac", "ratio"}, {"mapper.full_evals", "count"},
		{"mapper.delta_evals", "count"}, {"mapper.duplicates", "count"}, {"mapper.invalid", "count"},
		{"mapper.useful_frac", "ratio"},
		{"mapper.cache_hits", "count"}, {"mapper.cache_misses", "count"}, {"mapper.disk_hits", "count"},
		{"mapper.cache_hit_ratio", "ratio"},
		{"exp.fig4_s", "s"}, {"exp.fig5_s", "s"}, {"explore.run_s", "s"}, {"explore.points", "count"},
		{"explore.surrogate_kept_frac", "ratio"}, {"sweep.self_s", "s"},
		{"sweep.server_ms_p50", "ms"}, {"sweep.server_ms_p99", "ms"}, {"sweep.transport_ms_p50", "ms"},
		{"shard.lease_ms", "ms"}, {"shard.heartbeat_ms", "ms"}, {"shard.complete_ms", "ms"},
		{"shard.lease_wait_ms", "ms"}, {"shard.leases", "count"}, {"shard.reassigned", "count"},
		{"store.load_us", "us"}, {"store.store_us", "us"}, {"store.upload_ms", "ms"},
		{"store.uploaded", "count"}, {"store.records", "count"}, {"store.flushes", "count"},
		{"store.encode_us", "us"}, {"store.decode_us", "us"}, {"store.bytes", "bytes"},
		{"store.segments", "count"},
		{"retry.retries", "count"}, {"http.requests", "count"}, {"http.ms", "ms"},
		{"trace.overhead_frac", "ratio"}, {"trace.spans", "count"},
	}
	for _, b := range ttqBudgets {
		defs = append(defs, metricDef{ttqName("ms", b), "ms"}, metricDef{ttqName("pj", b), "pJ"})
	}
	return defs
}()

func ttqName(kind string, budget int) string {
	return "mapper.ttq_" + kind + "_b" + strconv.Itoa(budget)
}

// zeroLayers reports every per-layer metric as 0 until a workload sets it.
func zeroLayers(rep *report) {
	for _, d := range perLayerMetrics {
		rep.layer(d.name, d.unit, 0)
	}
}

func unitOf(name string) string {
	for _, d := range perLayerMetrics {
		if d.name == name {
			return d.unit
		}
	}
	for _, d := range endToEndMetrics {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// setLayer reports a declared per-layer metric.
func setLayer(rep *report, name string, v float64) { rep.layer(name, unitOf(name), v) }

// setE2E reports a declared end-to-end metric.
func setE2E(rep *report, name string, v float64) { rep.e2e(name, unitOf(name), v) }

// pjPerMAC is the geometric mean of best-mapping energy per MAC over the
// given searches (simulated, not host time).
func pjPerMAC(bests []*mapper.Best) float64 {
	xs := make([]float64, 0, len(bests))
	for _, b := range bests {
		xs = append(xs, b.Result.PJPerMAC())
	}
	return geomean(xs)
}

// funnel holds the mapper's candidate-stream counters summed over a set
// of searches.
type funnel struct {
	Searches, Evaluations, Pruned, DeltaEvals, FullEvals, Duplicates, Invalid int
}

func funnelOf(bests []*mapper.Best) funnel {
	f := funnel{Searches: len(bests)}
	for _, b := range bests {
		f.Evaluations += b.Evaluations
		f.Pruned += b.Stats.Pruned
		f.DeltaEvals += b.Stats.DeltaEvals
		f.FullEvals += b.Stats.FullEvals
		f.Duplicates += b.Stats.Duplicates
		f.Invalid += b.Stats.Invalid
	}
	return f
}

func (f funnel) report(rep *report) {
	scored := float64(f.Pruned + f.DeltaEvals + f.FullEvals)
	setLayer(rep, "mapper.searches", float64(f.Searches))
	setLayer(rep, "mapper.evaluations", float64(f.Evaluations))
	setLayer(rep, "mapper.pruned_frac", ratio(float64(f.Pruned), scored))
	setLayer(rep, "mapper.full_evals", float64(f.FullEvals))
	setLayer(rep, "mapper.delta_evals", float64(f.DeltaEvals))
	setLayer(rep, "mapper.duplicates", float64(f.Duplicates))
	setLayer(rep, "mapper.invalid", float64(f.Invalid))
	setLayer(rep, "mapper.useful_frac", ratio(scored, float64(f.Evaluations)))
}

// reportTiers reports cache tier traffic.
func reportTiers(rep *report, ts mapper.TierStats) {
	setLayer(rep, "mapper.cache_hits", float64(ts.Hits))
	setLayer(rep, "mapper.cache_misses", float64(ts.Misses))
	setLayer(rep, "mapper.disk_hits", float64(ts.DiskHits))
	setLayer(rep, "mapper.cache_hit_ratio", ratio(float64(ts.Hits+ts.DiskHits), float64(ts.Hits+ts.DiskHits+ts.Misses)))
}

func addTiers(a, b mapper.TierStats) mapper.TierStats {
	return mapper.TierStats{Hits: a.Hits + b.Hits, DiskHits: a.DiskHits + b.DiskHits, Misses: a.Misses + b.Misses, DiskFails: a.DiskFails + b.DiskFails}
}

// reportSearchSpans reports the in-situ search time the observers saw and
// returns its sum in milliseconds.
func reportSearchSpans(rep *report, tr *tracer) float64 {
	ds := tr.durationsMS("mapper.search")
	setLayer(rep, "mapper.search_ms", median(ds))
	return sum(ds)
}

// archIndex maps the architectures and layer shapes a workload builds to
// their fingerprints, which are exactly the Arch and Layer halves of a
// mapper.Key; it lets the model be timed on the mappings that searches
// returned.
type archIndex struct {
	archs  map[uint64]*arch.Arch
	layers map[uint64]workload.Layer
}

func newArchIndex() *archIndex {
	return &archIndex{archs: map[uint64]*arch.Arch{}, layers: map[uint64]workload.Layer{}}
}

func (x *archIndex) addAlbireo(cfg albireo.Config) error {
	a, err := cfg.Build()
	if err != nil {
		return err
	}
	x.archs[a.Fingerprint()] = a
	return nil
}

func (x *archIndex) addNetwork(name string, batch int) error {
	net, err := workload.ByName(name, batch)
	if err != nil {
		return err
	}
	net = net.WithBatch(batch) // as albireo.EvalNetwork does
	for _, l := range net.Layers {
		x.layers[l.ShapeFingerprint()] = l
	}
	return nil
}

// modelSample caps how many search results the model timing uses.
const modelSample = 48

// modelReps is how many times each call is repeated per mapping.
const modelReps = 100

// timeModel times Compiled.EvaluateInto, Stage, FinishStaged and
// LowerBound over the best mappings of the given searches whose
// architecture and layer the index knows, and counts the allocations of
// the mapper's per-candidate Stage+FinishStaged round trip.
func timeModel(rep *report, x *archIndex, keys []mapper.Key, bests []*mapper.Best) {
	opts := model.Options{SkipValidate: true}
	var evalNS, stageNS, pairNS, lbNS float64
	calls, pairs := 0, 0
	allocs := 0.0
	for i, k := range keys {
		if pairs >= modelSample {
			break
		}
		a, okA := x.archs[k.Arch]
		l, okL := x.layers[k.Layer]
		if !okA || !okL {
			continue
		}
		c, err := model.Compile(a, &l)
		if err != nil {
			continue
		}
		m := bests[i].Mapping
		s := c.Engine().NewScratch()
		res := &model.Result{}
		if err := c.EvaluateInto(s, m, res, opts); err != nil {
			continue
		}
		pairs++
		calls += modelReps
		evalNS += timeLoop(func() { c.EvaluateInto(s, m, res, opts) })
		stageNS += timeLoop(func() { c.Stage(s, m, opts, 0, 0, math.Inf(1)) })
		pairNS += timeLoop(func() {
			c.Stage(s, m, opts, 0, 0, math.Inf(1))
			c.FinishStaged(s, res, opts)
		})
		lbNS += timeLoop(func() { c.LowerBound(s, m, opts) })
		allocs = max(allocs, testing.AllocsPerRun(20, func() {
			c.Stage(s, m, opts, 0, 0, math.Inf(1))
			c.FinishStaged(s, res, opts)
		}))
	}
	n := float64(max(calls, 1))
	setLayer(rep, "model.pairs", float64(pairs))
	if pairs == 0 {
		return
	}
	setLayer(rep, "model.evaluate_ns", evalNS/n)
	setLayer(rep, "model.stage_ns", stageNS/n)
	setLayer(rep, "model.finish_ns", max(pairNS-stageNS, 0)/n)
	setLayer(rep, "model.lower_bound_ns", lbNS/n)
	setLayer(rep, "model.allocs_per_eval", allocs)
	rep.Notes["model_calls_per_op"] = calls
}

// timeLoop runs f modelReps times and returns the elapsed nanoseconds.
func timeLoop(f func()) float64 {
	start := time.Now()
	for i := 0; i < modelReps; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds())
}

// checkAllocs turns a non-zero allocation count on the mapper's
// per-candidate path into a failed operation.
func checkAllocs(rep *report) {
	if a := rep.PerLayer["model.allocs_per_eval"].Value; a != 0 {
		rep.op(fmt.Errorf("model: Stage+FinishStaged allocates %.1f times per candidate, want 0", a))
	} else if rep.PerLayer["model.pairs"].Value > 0 {
		rep.op(nil)
	}
}

// timeToQuality records the best energy the mapper reaches, and the host
// time it takes, at each budget of ttqBudgets on the bench conv layer
// (Albireo aggressive, 128x128 3x3 conv at 28x28, no seed mappings, two
// search workers, seed 1). The energy is simulated and repeats exactly;
// the time is the median of five searches.
func timeToQuality(rep *report) error {
	a, err := albireo.Default(albireo.Aggressive).Build()
	if err != nil {
		return err
	}
	layer := workload.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	search := func(budget int) (*mapper.Best, float64, error) {
		start := time.Now()
		b, err := mapper.Search(a, &layer, mapper.Options{Budget: budget, Seed: 1, Workers: 2})
		return b, millis(time.Since(start)), err
	}
	if _, _, err := search(10); err != nil { // builds the process-wide session
		return err
	}
	for _, budget := range ttqBudgets {
		var ms []float64
		var best *mapper.Best
		for i := 0; i < 5; i++ {
			b, t, err := search(budget)
			if err != nil {
				return err
			}
			best = b
			ms = append(ms, t)
		}
		setLayer(rep, ttqName("ms", budget), median(ms))
		setLayer(rep, ttqName("pj", budget), best.Result.TotalPJ)
	}
	return nil
}
