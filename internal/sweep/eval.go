package sweep

import (
	"fmt"

	"photoloop/internal/albireo"
	"photoloop/internal/arch"
	"photoloop/internal/fidelity"
	"photoloop/internal/mapper"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/spec"
	"photoloop/internal/workload"
)

// EvalRequest is one architecture × network evaluation: the request body
// of `POST /v1/eval` and the engine behind `photoloop eval`. Exactly one
// of Arch/Albireo/Preset selects the architecture, and exactly one of
// Network/Inline selects the workload. With no Mapping, every layer is
// mapper-searched; with one, the fixed schedule is evaluated as-is.
//
// Searched evaluations of Albireo-backed architectures (an Albireo base
// or an albireo-backed preset) run through albireo.EvalNetwork — the
// canonical schedules seed each search and repeated layer shapes share
// one search — exactly as sweep and study points do, so a study row and
// the corresponding `photoloop eval` answer are bit-identical.
type EvalRequest struct {
	// Arch is a raw architecture spec document.
	Arch *spec.ArchSpec `json:"arch,omitempty"`
	// Albireo selects the paper's Albireo instantiation instead.
	Albireo *AlbireoBase `json:"albireo,omitempty"`
	// Preset selects a named architecture from the preset library
	// (presets.ByName) instead.
	Preset string `json:"preset,omitempty"`
	// Network names a zoo network; Inline embeds one.
	Network string            `json:"network,omitempty"`
	Inline  *workload.Network `json:"inline,omitempty"`
	// Layer restricts the evaluation to one named layer.
	Layer string `json:"layer,omitempty"`
	// Batch is the batch size (default 1).
	Batch int `json:"batch,omitempty"`
	// Objective is the mapper objective (default "energy").
	Objective string `json:"objective,omitempty"`
	// Budget, Seed and Workers tune the per-layer search (0 = mapper
	// defaults).
	Budget  int   `json:"budget,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	Workers int   `json:"workers,omitempty"`
	// Mapping evaluates this fixed schedule on every selected layer
	// instead of searching.
	Mapping *spec.MappingSpec `json:"mapping,omitempty"`
	// Fidelity, when set, additionally runs the analog fidelity rollup
	// (package fidelity) over each evaluated mapping. `{}` uses the
	// physics defaults; energy/delay/area are bit-identical either way.
	Fidelity *fidelity.Spec `json:"fidelity,omitempty"`
}

// EvalResponse is the evaluation result: per-layer outcomes plus the
// network totals, and the architecture's mapping-independent properties.
type EvalResponse struct {
	Arch             string         `json:"arch"`
	Network          string         `json:"network"`
	AreaUM2          float64        `json:"area_um2"`
	PeakMACsPerCycle int64          `json:"peak_macs_per_cycle"`
	Layers           []LayerOutcome `json:"layers"`
	// Totals across the evaluated layers.
	MACs         int64   `json:"macs"`
	Cycles       float64 `json:"cycles"`
	TotalPJ      float64 `json:"total_pj"`
	PJPerMAC     float64 `json:"pj_per_mac"`
	MACsPerCycle float64 `json:"macs_per_cycle"`
	Utilization  float64 `json:"utilization"`
	Evaluations  int     `json:"evaluations"`
	// EffectiveBits, SNRDB and AccuracyLossPct carry the MAC-weighted
	// analog fidelity rollup when the request set Fidelity.
	EffectiveBits   float64 `json:"effective_bits,omitempty"`
	SNRDB           float64 `json:"snr_db,omitempty"`
	AccuracyLossPct float64 `json:"accuracy_loss_pct,omitempty"`
	// Pruned, DeltaEvals and FullEvals sum the mapper's search statistics
	// across the evaluated layers (zero for fixed-mapping requests).
	Pruned     int `json:"pruned,omitempty"`
	DeltaEvals int `json:"delta_evals,omitempty"`
	FullEvals  int `json:"full_evals,omitempty"`
}

// resolveBase resolves the request's architecture. For Albireo-backed
// requests (an Albireo base or an albireo-backed preset) the returned
// config is non-nil, letting searched evaluations run the same
// albireo.EvalNetwork path the sweep engine uses. Only a raw spec is
// built afresh: a preset's or an Albireo configuration's architecture is
// a process-wide memo's, shared and read-only.
func (req *EvalRequest) resolveBase() (*albireo.Config, *arch.Arch, error) {
	selectors := 0
	for _, set := range []bool{req.Arch != nil, req.Albireo != nil, req.Preset != ""} {
		if set {
			selectors++
		}
	}
	if selectors != 1 {
		return nil, nil, fmt.Errorf("sweep: eval request must set exactly one of arch, albireo or preset")
	}
	var cfg albireo.Config
	switch {
	case req.Arch != nil:
		a, err := req.Arch.Build()
		return nil, a, err
	case req.Albireo != nil:
		c, err := req.Albireo.config()
		if err != nil {
			return nil, nil, err
		}
		cfg = c
	default:
		e, err := presetByName(req.Preset)
		if err != nil {
			return nil, nil, err
		}
		c, ok := e.preset.Albireo()
		if !ok {
			a, err := e.build()
			return nil, a, err
		}
		cfg = c
	}
	sess, err := albireo.SessionFor(cfg)
	if err != nil {
		return nil, nil, err
	}
	return &cfg, sess.Engine().Arch(), nil
}

// Eval runs one evaluation request. An optional shared cache deduplicates
// searches across requests (the HTTP server passes its process-wide
// cache; pass nil for a one-shot evaluation).
func Eval(req *EvalRequest, cache *mapper.Cache) (*EvalResponse, error) {
	cfg, a, err := req.resolveBase()
	if err != nil {
		return nil, err
	}
	wl := Workload{Network: req.Network, Inline: req.Inline, Batch: req.Batch}
	// net is shared and not yet batched; both paths below apply the batch
	// to their own copy of the layers.
	net, netName, err := wl.network()
	if err != nil {
		return nil, err
	}
	batch := max(1, req.Batch)
	layers := net.Layers
	if req.Layer != "" {
		layers = nil
		for i := range net.Layers {
			if net.Layers[i].Name == req.Layer {
				layers = append(layers, net.Layers[i])
			}
		}
		if len(layers) == 0 {
			return nil, fmt.Errorf("sweep: network %s has no layer %q", netName, req.Layer)
		}
	}
	objName := req.Objective
	if objName == "" {
		objName = "energy"
	}
	obj, err := mapper.ParseObjective(objName)
	if err != nil {
		return nil, err
	}

	resp := &EvalResponse{Arch: a.Name, Network: netName, PeakMACsPerCycle: a.PeakMACsPerCycle()}
	if area, err := a.Area(); err == nil {
		resp.AreaUM2 = area
	}

	// The fidelity rollup is a closed-form post-pass over each finished
	// mapping: it annotates the response's layer outcomes and MAC-weighted
	// totals without touching (possibly cached) evaluator results.
	var chain *fidelity.Chain
	if req.Fidelity != nil {
		if chain, err = fidelity.Compile(a, req.Fidelity); err != nil {
			return nil, err
		}
	}
	var fidMACs, fidBits, fidSNR, fidLoss float64
	annotate := func(lo *LayerOutcome, m *mapping.Mapping) {
		if chain == nil {
			return
		}
		rep := chain.Evaluate(m)
		lo.EffectiveBits = rep.EffectiveBits
		lo.SNRDB = rep.SNRDB
		lo.AccuracyLossPct = rep.AccuracyLossPct
		w := float64(lo.MACs)
		fidMACs += w
		fidBits += rep.EffectiveBits * w
		fidSNR += rep.SNRDB * w
		fidLoss += rep.AccuracyLossPct * w
	}
	finishFidelity := func() {
		if chain != nil && fidMACs > 0 {
			resp.EffectiveBits = fidBits / fidMACs
			resp.SNRDB = fidSNR / fidMACs
			resp.AccuracyLossPct = fidLoss / fidMACs
		}
	}

	if cfg != nil && req.Mapping == nil {
		// Albireo-backed search: run the exact network-evaluator path the
		// sweep engine uses (canonical seeds, shape-deduplicated
		// searches), so eval answers match sweep and study points
		// bit-for-bit.
		sub := workload.Network{Name: netName, Layers: layers}
		nres, err := albireo.EvalNetwork(*cfg, sub, albireo.NetOptions{
			Batch: batch,
			Mapper: mapper.Options{
				Objective: obj, Budget: req.Budget, Seed: req.Seed,
				Workers: req.Workers, Cache: cache,
			},
			// The response reads the outcome and its scalar totals only.
			TotalsOnly: true,
		})
		if err != nil {
			return nil, err
		}
		resp.Layers = make([]LayerOutcome, 0, len(nres.Layers))
		for i := range nres.Layers {
			best := nres.Layers[i].Best
			lo := layerOutcome(best)
			// A shared Best names the layer it was first searched for.
			lo.Layer = nres.Layers[i].Layer.Name
			resp.Layers = append(resp.Layers, lo)
			annotate(&resp.Layers[len(resp.Layers)-1], best.Mapping)
			resp.Evaluations += best.Evaluations
			resp.Pruned += best.Stats.Pruned
			resp.DeltaEvals += best.Stats.DeltaEvals
			resp.FullEvals += best.Stats.FullEvals
		}
		// EvalNetwork already rolled the layers up (from the same start,
		// over the same layers in the same order).
		resp.fillTotals(&nres.Total)
		finishFidelity()
		return resp, nil
	}

	work := workload.Network{Name: netName, Layers: layers}.WithBatch(batch)
	var bests []*mapper.Best
	if req.Mapping == nil {
		sess, err := mapper.SessionFor(a)
		if err != nil {
			return nil, err
		}
		// A read-only search of every layer: same-shaped layers share one
		// search and cached results are not copied, so each outcome is
		// named from its own layer.
		opts := mapper.Options{
			Objective: obj, Budget: req.Budget, Seed: req.Seed,
			Workers: req.Workers, Cache: cache,
		}
		tasks := make([]mapper.LayerTask, len(work.Layers))
		for i := range work.Layers {
			tasks[i] = mapper.LayerTask{Session: sess, Layer: &work.Layers[i], Options: func() mapper.Options { return opts }}
		}
		if bests, err = mapper.SearchLayersShared(tasks); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	var fixedMapping *mapping.Mapping
	if req.Mapping != nil {
		if fixedMapping, err = req.Mapping.Build(a); err != nil {
			return nil, err
		}
	}

	total := model.Result{Layer: netName}
	resp.Layers = make([]LayerOutcome, 0, len(work.Layers))
	for i := range work.Layers {
		l := &work.Layers[i]
		var res *model.Result
		var m *mapping.Mapping
		evals := 0
		var stats mapper.SearchStats
		if fixedMapping != nil {
			if res, err = model.Evaluate(a, l, fixedMapping, model.Options{}); err != nil {
				return nil, fmt.Errorf("sweep: layer %s: %w", l.Name, err)
			}
			m = fixedMapping
		} else {
			best := bests[i]
			res, evals, stats = best.Result, best.Evaluations, best.Stats
			m = best.Mapping
		}
		lo := layerOutcomeFrom(res, evals, stats)
		lo.Layer = l.Name
		resp.Layers = append(resp.Layers, lo)
		annotate(&resp.Layers[len(resp.Layers)-1], m)
		resp.Evaluations += evals
		resp.Pruned += stats.Pruned
		resp.DeltaEvals += stats.DeltaEvals
		resp.FullEvals += stats.FullEvals
		total.AccumulateTotals(res)
	}
	resp.fillTotals(&total)
	finishFidelity()
	return resp, nil
}

// fillTotals copies the accumulated whole-network metrics into the
// response.
func (resp *EvalResponse) fillTotals(total *model.Result) {
	resp.MACs = total.MACs
	resp.Cycles = total.Cycles
	resp.TotalPJ = total.TotalPJ
	resp.PJPerMAC = total.PJPerMAC()
	resp.MACsPerCycle = total.MACsPerCycle
	resp.Utilization = total.Utilization
}
