package albireo

import (
	"fmt"
	"slices"

	"photoloop/internal/mapper"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

// NetOptions configures a network evaluation on Albireo.
type NetOptions struct {
	// Batch replicates the workload batch dimension (>= 1). Batching
	// amortizes weight movement (the first Fig. 4 optimization).
	Batch int
	// Fused keeps activations in the global buffer between layers
	// instead of spilling them to DRAM (the second Fig. 4 optimization,
	// after LoopTree). Fusion doubles the global buffer (and grows it
	// further if the activations demand it), charging the larger SRAM's
	// higher per-access energy.
	Fused bool
	// Mapper configures the per-layer search.
	Mapper mapper.Options
	// WarmStarts supplies per-layer-shape incumbent mappings (keyed by
	// workload.Layer.ShapeFingerprint) from structurally related solved
	// evaluations — a neighboring sweep point's bests, typically. They are
	// appended to Mapper.WarmStarts for the matching layers; see
	// mapper.Options.WarmStarts for the semantics.
	WarmStarts map[uint64][]*mapping.Mapping
	// TotalsOnly is for callers that only read the outcome. The network
	// total's Energy and Usage ledgers stay empty (every scalar of
	// NetResult.Total is still exact), and the Bests are shared and must
	// not be modified: same-shaped layers share one, and one served by
	// Mapper.Cache is the cache's own. A Best's Result.Layer names the
	// layer it was first searched for; LayerEval.Layer still names each
	// layer. No ledger is copied.
	TotalsOnly bool
}

// LayerEval pairs a layer with its best mapping's evaluation.
type LayerEval struct {
	Layer workload.Layer
	Best  *mapper.Best
}

// NetResult is a whole-network evaluation.
type NetResult struct {
	Network string
	Config  Config
	Options NetOptions
	Layers  []LayerEval
	// Total accumulates all layers (energy ledger included unless
	// Options.TotalsOnly).
	Total model.Result
}

// PJPerMAC returns whole-network energy per MAC.
func (r *NetResult) PJPerMAC() float64 { return r.Total.PJPerMAC() }

// EvalNetwork maps and evaluates every layer of the network on the
// configured Albireo instance, applying batching and fusion.
func EvalNetwork(cfg Config, net workload.Network, opts NetOptions) (*NetResult, error) {
	if opts.Batch < 1 {
		opts.Batch = 1
	}
	work := net.WithBatch(opts.Batch)
	if err := work.Validate(); err != nil {
		return nil, err
	}

	res := &NetResult{Network: net.Name, Config: cfg, Options: opts}
	res.Total.Layer = net.Name

	// mapper.SearchLayers searches one representative per distinct
	// (session, layer shape) — the canonical seed mappings are themselves
	// shape properties — and clones its result for repeated blocks. The
	// warm starts are gathered inside each representative's search; the
	// canonical seeds go in as memoized fingerprints and are built only if
	// the search misses every cache tier.
	tasks := make([]mapper.LayerTask, len(work.Layers))
	// firstSeen[i] is the memo entry task i fingerprinted first, whose
	// seeds wait for a search to take them.
	firstSeen := make([]*seedEntry, len(work.Layers))
	// The architecture is identical for every layer unless fusion changes
	// which tensors the DRAM backs (and then only the first and last
	// layers differ). Each comes from the process-wide session memo.
	var sess *mapper.Session
	for i := range work.Layers {
		layer := &work.Layers[i]
		if i == 0 || opts.Fused {
			var err error
			if sess, err = SessionFor(layerConfig(cfg, &work, opts, i)); err != nil {
				return nil, fmt.Errorf("albireo: %s: %w", layer.Name, err)
			}
		}
		sess := sess
		tasks[i] = mapper.LayerTask{Session: sess, Layer: layer, Options: func() mapper.Options {
			mopts := opts.Mapper
			mopts.LazySeeds, firstSeen[i] = canonicalSeeds(sess, layer)
			if opts.WarmStarts != nil {
				// A fresh slice: concurrent searches share the map's entries.
				mopts.WarmStarts = slices.Concat(opts.WarmStarts[layer.ShapeFingerprint()], mopts.WarmStarts)
			}
			return mopts
		}}
	}
	search := mapper.SearchLayers
	if opts.TotalsOnly {
		search = mapper.SearchLayersShared
	}
	bests, err := search(tasks)
	// A search served from a cache tier never took the seeds built to
	// fingerprint its pair; the memo keeps only the fingerprints.
	for _, e := range firstSeen {
		if e != nil {
			e.pending.Store(nil)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("albireo: %w", err)
	}
	res.Layers = make([]LayerEval, len(bests))
	for i, best := range bests {
		res.Layers[i] = LayerEval{Layer: work.Layers[i], Best: best}
	}
	if opts.TotalsOnly {
		for _, best := range bests {
			res.Total.AccumulateTotals(best.Result)
		}
		return res, nil
	}
	nEnergy, nUsage := 0, 0
	for _, best := range bests {
		nEnergy += len(best.Result.Energy)
		nUsage += len(best.Result.Usage)
	}
	res.Total.Energy = make([]model.EnergyItem, 0, nEnergy)
	res.Total.Usage = make([]model.Usage, 0, nUsage)
	for _, best := range bests {
		res.Total.Accumulate(best.Result)
	}
	return res, nil
}

// layerConfig returns the configuration layer i of the network runs on:
// cfg itself, or under fusion cfg with the fused global buffer and only
// the tensors DRAM still backs for that layer.
func layerConfig(cfg Config, work *workload.Network, opts NetOptions, i int) Config {
	if !opts.Fused {
		return cfg
	}
	// Activations stay on chip: DRAM backs weights always, inputs only
	// for the first layer, outputs only for the last.
	keeps := workload.NewTensorSet(workload.Weights)
	if i == 0 {
		keeps = keeps.With(workload.Inputs)
	}
	if i == len(work.Layers)-1 {
		keeps = keeps.With(workload.Outputs)
	}
	cfg.DRAMKeeps = keeps
	cfg.GLBMiB = fusedGLBMiB(cfg.GLBMiB, work, opts.Batch)
	return cfg
}

// fusedGLBMiB sizes the fused global buffer: at least double the baseline
// (the paper's trade-off) and large enough for the biggest inter-layer
// activation working set plus headroom for weights and the second
// activation tensor.
func fusedGLBMiB(baseMiB int, net *workload.Network, batch int) int {
	need := int64(0)
	for i := range net.Layers {
		l := &net.Layers[i]
		words := l.TensorElems(workload.Inputs) + l.TensorElems(workload.Outputs) + l.TensorElems(workload.Weights)
		if words > need {
			need = words
		}
	}
	needMiB := int((need + (1 << 20) - 1) >> 20) // 8-bit words -> MiB
	mib := 2 * baseMiB
	// Round the activation demand up with 50% headroom for tiling slack.
	for mib < needMiB+needMiB/2+1 {
		mib *= 2
	}
	return mib
}

// ThroughputMACsPerCycle returns the whole-network achieved throughput:
// total real MACs divided by total cycles.
func (r *NetResult) ThroughputMACsPerCycle() float64 {
	if r.Total.Cycles == 0 {
		return 0
	}
	return float64(r.Total.MACs) / r.Total.Cycles
}

// DRAMShare returns the DRAM fraction of total energy.
func (r *NetResult) DRAMShare() float64 {
	if r.Total.TotalPJ == 0 {
		return 0
	}
	breakdown := RoleBreakdown(&r.Total)
	return breakdown[RoleDRAM] / r.Total.TotalPJ
}
