package model

import (
	"math"
	"math/rand"
	"testing"

	"photoloop/internal/arch"
	"photoloop/internal/components"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// photonicArch builds a 5-level Albireo-shaped hierarchy — streaming
// modulated-input station, analog output accumulator, weight ring bank —
// with randomized converter bases and reuse flags, so the bound's streaming,
// PerDistinct, multicast and spatial-reduction terms are all exercised.
func photonicArch(t *testing.T, rng *rand.Rand) *arch.Arch {
	t.Helper()
	lib := components.NewLibrary()
	mk := func(class, name string, p components.Params) {
		c, err := components.Build(class, name, p)
		if err != nil {
			t.Fatal(err)
		}
		lib.MustAdd(c)
	}
	mk("dram", "DRAM", components.Params{"pj_per_bit": 8})
	mk("sram", "Glb", components.Params{"capacity_bits": 1 << 24, "access_bits": 8})
	mk("dac", "InDAC", components.Params{"bits": 8, "pj_per_bit": 0.05})
	mk("dac", "WDAC", components.Params{"bits": 8, "pj_per_bit": 0.03})
	mk("adc", "ADC", components.Params{"bits": 8, "walden_fj_per_step": 50})
	mk("mzm", "MZM", components.Params{"modulate_pj": 1})
	mk("mrr", "MRR", components.Params{"program_pj": 2, "transit_pj": 0.01})
	mk("photodiode", "PD", components.Params{"detect_pj": 0.5})
	mk("laser", "Laser", components.Params{"per_mac_pj": 0.25})

	a := &arch.Arch{
		Name: "photonic-rand", Lib: lib, ClockGHz: 1, DefaultWordBits: 8,
		Levels: []arch.Level{
			{Name: "DRAM", Keeps: workload.AllTensorSet(), AccessComponent: "DRAM"},
			{
				Name: "Glb", Keeps: workload.AllTensorSet(), AccessComponent: "Glb",
				Spatial:     []arch.SpatialFactor{arch.Choice(1+rng.Intn(3), workload.DimC, workload.DimK, workload.DimN)},
				NoMulticast: rng.Intn(3) == 0,
			},
			{
				Name: "Mod", Keeps: workload.NewTensorSet(workload.Inputs),
				Streaming:           true,
				InputOverlapSharing: rng.Intn(2) == 0,
				Spatial: []arch.SpatialFactor{
					arch.Choice(1+rng.Intn(4), workload.DimQ, workload.DimP, workload.DimN),
					arch.Choice(1+rng.Intn(3), workload.DimK, workload.DimN),
				},
				FillVia: map[workload.Tensor][]arch.ActionRef{
					workload.Inputs: {
						{Component: "InDAC", Action: components.ActionConvert, PerDistinct: rng.Intn(2) == 0},
						{Component: "MZM", Action: components.ActionModulate},
					},
				},
			},
			{
				Name: "Acc", Keeps: workload.NewTensorSet(workload.Outputs),
				WordBits: 24,
				Spatial:  []arch.SpatialFactor{arch.Choice(1+rng.Intn(3), workload.DimS, workload.DimC)},
				UpdateVia: map[workload.Tensor][]arch.ActionRef{
					workload.Outputs: {{Component: "PD", Action: components.ActionDetect}},
				},
				DrainVia: map[workload.Tensor][]arch.ActionRef{
					workload.Outputs: {{Component: "ADC", Action: components.ActionConvert, PerDistinct: rng.Intn(2) == 0}},
				},
				NoSpatialReduce: rng.Intn(4) == 0,
			},
			{
				Name: "Ring", Keeps: workload.NewTensorSet(workload.Weights),
				FillVia: map[workload.Tensor][]arch.ActionRef{
					workload.Weights: {
						{Component: "WDAC", Action: components.ActionConvert},
						{Component: "MRR", Action: components.ActionProgram},
					},
				},
			},
		},
		Compute: arch.Compute{
			Name: "Optical",
			PerMAC: []arch.ActionRef{
				{Component: "Laser", Action: components.ActionSupply},
				{Component: "MRR", Action: components.ActionTransit},
			},
		},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// randSearchStyleMapping draws a padded random mapping the way the mapper
// does: candidate factors innermost-out per dimension, residue at the
// outermost level, random permutations per level.
func randSearchStyleMapping(rng *rand.Rand, a *arch.Arch, l *workload.Layer) *mapping.Mapping {
	m := mapping.New(a)
	n := a.NumLevels()
	spatial := workload.Ones()
	for i := 0; i < n; i++ {
		spatial = spatial.Mul(m.SpatialAt(a, i))
	}
	for _, d := range workload.AllDims() {
		rem := workload.CeilDiv(l.Bound(d), spatial[d])
		for i := n - 1; i > 0 && rem > 1; i-- {
			cands := mapping.PaddedCandidates(rem)
			f := cands[rng.Intn(len(cands))]
			m.Levels[i].Temporal[d] = f
			rem = workload.CeilDiv(rem, f)
		}
		m.Levels[0].Temporal[d] *= rem
	}
	perms := [][]workload.Dim{
		{workload.DimN, workload.DimK, workload.DimP, workload.DimQ, workload.DimC, workload.DimR, workload.DimS},
		{workload.DimK, workload.DimC, workload.DimR, workload.DimS, workload.DimN, workload.DimP, workload.DimQ},
		{workload.DimC, workload.DimP, workload.DimQ, workload.DimR, workload.DimS, workload.DimN, workload.DimK},
	}
	for i := 0; i < n; i++ {
		m.Levels[i].Perm = append([]workload.Dim(nil), perms[rng.Intn(len(perms))]...)
	}
	// Occasionally randomize the spatial assignment like the mapper does.
	for i := 0; i < n; i++ {
		lv := a.Level(i)
		for j := range lv.Spatial {
			m.Levels[i].SpatialChoice[j] = lv.Spatial[j].Dims[rng.Intn(len(lv.Spatial[j].Dims))]
		}
	}
	return m
}

// TestLowerBoundAdmissible is the admissibility property: over randomized
// architectures, layers, mappings and eval options, the bound never
// exceeds the full evaluation's energy or cycles.
func TestLowerBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	checked := 0
	for trial := 0; trial < 400; trial++ {
		var a *arch.Arch
		if trial%2 == 0 {
			a = photonicArch(t, rng)
		} else {
			a = randArch(t, rng)
		}
		l := workload.NewConv("rand",
			1+rng.Intn(2), 1+rng.Intn(8), 1+rng.Intn(8),
			1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(3), 1+rng.Intn(3),
			1+rng.Intn(2), 0)
		m := randSearchStyleMapping(rng, a, &l)
		if err := m.Validate(a, &l); err != nil {
			continue
		}
		c, err := Compile(a, &l)
		if err != nil {
			t.Fatal(err)
		}
		s := c.Engine().NewScratch()
		opts := Options{SkipValidate: true, ChargeStatic: trial%3 == 0}
		res := &Result{}
		if err := c.EvaluateInto(s, m, res, opts); err != nil {
			continue // architecture/mapping combination the model rejects
		}
		b := c.LowerBound(s, m, opts)
		if b.EnergyPJ > res.TotalPJ {
			t.Fatalf("trial %d: energy bound %.9g exceeds evaluation %.9g\narch %s layer %s\n%s",
				trial, b.EnergyPJ, res.TotalPJ, a.Name, l.String(), m.String())
		}
		if b.Cycles > res.Cycles {
			t.Fatalf("trial %d: cycle bound %g exceeds evaluation %g", trial, b.Cycles, res.Cycles)
		}
		if b.EnergyPJ <= 0 || b.Cycles <= 0 {
			t.Fatalf("trial %d: degenerate bound %+v", trial, b)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d trials produced valid mappings", checked)
	}
}

// TestLowerBoundTight sanity-checks that the bound is useful, not merely
// admissible: on the streaming architecture it must recover a substantial
// fraction of the true energy (the streaming refill and per-MAC terms are
// exact), otherwise pruning would never fire.
func TestLowerBoundTight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := photonicArch(t, rng)
	l := workload.NewConv("tight", 1, 8, 8, 6, 6, 3, 3, 1, 1)
	c, err := Compile(a, &l)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Engine().NewScratch()
	res := &Result{}
	sum, bound := 0.0, 0.0
	for trial := 0; trial < 200; trial++ {
		m := randSearchStyleMapping(rng, a, &l)
		if m.Validate(a, &l) != nil {
			continue
		}
		if err := c.EvaluateInto(s, m, res, Options{SkipValidate: true}); err != nil {
			continue
		}
		sum += res.TotalPJ
		bound += c.LowerBound(s, m, Options{SkipValidate: true}).EnergyPJ
	}
	if sum == 0 {
		t.Fatal("no valid mappings")
	}
	if frac := bound / sum; frac < 0.2 {
		t.Errorf("bound recovers only %.1f%% of true energy — too loose to prune", 100*frac)
	}
}

// TestStagedDeltaMatchesEvaluateInto is the delta-evaluation equivalence
// property: for randomized mapping sequences with shared outer-level
// prefixes, Stage+FinishStaged through one long-lived scratch is
// bit-identical (every field, full ledger included) to a fresh
// EvaluateInto. The bound the delta Stage returns is bit-identical to
// LowerBound on a fresh scratch, and its early exit at a random limit
// decides "bound > limit" exactly as the exact bound does.
func TestStagedDeltaMatchesEvaluateInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	limRng := rand.New(rand.NewSource(19)) // separate, so limit draws do not shift the mapping draws
	for archTrial := 0; archTrial < 8; archTrial++ {
		var a *arch.Arch
		if archTrial%2 == 0 {
			a = photonicArch(t, rng)
		} else {
			a = randArch(t, rng)
		}
		l := workload.NewConv("seq", 1, 8, 6, 5, 5, 3, 3, 1, 1)
		c, err := Compile(a, &l)
		if err != nil {
			t.Fatal(err)
		}
		n := a.NumLevels()
		delta := c.Engine().NewScratch()
		var prev *mapping.Mapping
		got, want := &Result{}, &Result{}
		opts := Options{SkipValidate: true, FullLedger: true, ChargeStatic: archTrial%3 == 0}
		for step := 0; step < 60; step++ {
			var m *mapping.Mapping
			shared := 0
			if prev != nil && step%4 != 0 {
				// Redraw only the levels from `shared` inward, keeping the
				// outer prefix identical to the previous mapping.
				shared = 1 + rng.Intn(n)
				m = prev.Clone()
				fresh := randSearchStyleMapping(rng, a, &l)
				for i := shared; i < n; i++ {
					m.Levels[i] = fresh.Levels[i]
				}
			} else {
				m = randSearchStyleMapping(rng, a, &l)
			}
			if m.Validate(a, &l) != nil {
				continue
			}
			bound, err := c.Stage(delta, m, opts, shared, shared, math.Inf(1))
			if err != nil {
				t.Fatalf("arch %d step %d: Stage: %v", archTrial, step, err)
			}
			if fresh := c.LowerBound(c.Engine().NewScratch(), m, opts); bound != fresh {
				t.Fatalf("arch %d step %d (shared %d): staged bound %+v != fresh LowerBound %+v",
					archTrial, step, shared, bound, fresh)
			}
			// A limit around the exact bound, sometimes exactly on it.
			limitPJ := bound.EnergyPJ
			if limRng.Intn(4) != 0 {
				limitPJ *= 0.5 + limRng.Float64()
			}
			limited, err := c.Stage(c.Engine().NewScratch(), m, opts, 0, 0, limitPJ)
			if err != nil {
				t.Fatal(err)
			}
			if (limited.EnergyPJ > limitPJ) != (bound.EnergyPJ > limitPJ) {
				t.Fatalf("arch %d step %d: bound at limit %.12g is %.12g, exact bound %.12g decides otherwise",
					archTrial, step, limitPJ, limited.EnergyPJ, bound.EnergyPJ)
			}
			errDelta := c.FinishStaged(delta, got, opts)
			errFresh := c.EvaluateInto(c.Engine().NewScratch(), m, want, opts)
			if (errDelta == nil) != (errFresh == nil) {
				t.Fatalf("arch %d step %d: delta err %v, fresh err %v", archTrial, step, errDelta, errFresh)
			}
			if errFresh != nil {
				prev = nil // scratch state is stale after a failure
				continue
			}
			if got.TotalPJ != want.TotalPJ || got.Cycles != want.Cycles ||
				got.ComputeCycles != want.ComputeCycles || got.Utilization != want.Utilization ||
				got.PaddedMACs != want.PaddedMACs || got.BottleneckLevel != want.BottleneckLevel {
				t.Fatalf("arch %d step %d (shared %d): delta diverged: %+v vs %+v",
					archTrial, step, shared, got, want)
			}
			if len(got.Usage) != len(want.Usage) || len(got.Energy) != len(want.Energy) {
				t.Fatalf("arch %d step %d: ledger shape diverged", archTrial, step)
			}
			for i := range got.Usage {
				if got.Usage[i] != want.Usage[i] {
					t.Fatalf("arch %d step %d (shared %d): usage %d diverged:\n%+v\n%+v",
						archTrial, step, shared, i, got.Usage[i], want.Usage[i])
				}
			}
			for i := range got.Energy {
				if got.Energy[i] != want.Energy[i] {
					t.Fatalf("arch %d step %d: energy item %d diverged", archTrial, step, i)
				}
			}
			prev = m
		}
	}
}

// TestStagedDeltaStaleScratch checks the guard rails: a shared prefix
// claimed against a scratch that never evaluated (or evaluated on another
// engine) degrades to a full evaluation instead of reading garbage.
func TestStagedDeltaStaleScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := photonicArch(t, rng)
	l := workload.NewConv("stale", 1, 4, 4, 4, 4, 1, 1, 1, 0)
	c, err := Compile(a, &l)
	if err != nil {
		t.Fatal(err)
	}
	m := randSearchStyleMapping(rng, a, &l)
	for m.Validate(a, &l) != nil {
		m = randSearchStyleMapping(rng, a, &l)
	}
	got, want := &Result{}, &Result{}
	if err := c.EvaluateInto(c.Engine().NewScratch(), m, want, Options{SkipValidate: true}); err != nil {
		t.Fatal(err)
	}
	// stageFinish is the delta evaluation under test: Stage claiming a
	// shared prefix, then FinishStaged.
	stageFinish := func(s *Scratch, shared int) {
		t.Helper()
		if _, err := c.Stage(s, m, Options{SkipValidate: true}, shared, shared, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		if err := c.FinishStaged(s, got, Options{SkipValidate: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh scratch with a bogus shared count.
	stageFinish(c.Engine().NewScratch(), 3)
	if got.TotalPJ != want.TotalPJ {
		t.Fatalf("stale-scratch evaluation diverged: %g vs %g", got.TotalPJ, want.TotalPJ)
	}
	// Scratch warmed on a different engine.
	other := randArch(t, rng)
	oc, err := Compile(other, &l)
	if err != nil {
		t.Fatal(err)
	}
	s := oc.Engine().NewScratch()
	om := mapping.New(other)
	for _, d := range workload.AllDims() {
		om.Levels[0].Temporal[d] = workload.CeilDiv(l.Bound(d), om.SpatialAt(other, 0)[d]*om.SpatialAt(other, 1)[d]*om.SpatialAt(other, 2)[d])
	}
	if err := oc.EvaluateInto(s, om, got, Options{SkipValidate: true}); err != nil {
		t.Fatal(err)
	}
	stageFinish(s, 2)
	if got.TotalPJ != want.TotalPJ {
		t.Fatalf("cross-engine scratch diverged: %g vs %g", got.TotalPJ, want.TotalPJ)
	}
}
