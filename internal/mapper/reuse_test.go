package mapper_test

import (
	"fmt"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/arch"
	"photoloop/internal/baseline"
	"photoloop/internal/mapper"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// TestCrossSessionWorkerReuse interleaves searches on architectures with
// different level counts and capped levels — Albireo with and without
// weight reuse, the electrical baseline and the photonic test
// architecture — from one goroutine, on fresh sessions, so the
// process-wide worker pool hands every search a state some other
// architecture used last. Each result must equal the same search run
// before the interleaving, when every architecture's searches ran back to
// back.
func TestCrossSessionWorkerReuse(t *testing.T) {
	build := func(a *arch.Arch, err error) *arch.Arch {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	reuse := albireo.Default(albireo.Conservative)
	reuse.WeightReuse = true
	archs := []seededArch{
		{"albireo", build(albireo.Default(albireo.Conservative).Build()), canonicalSeeds},
		{"albireo-reuse", build(reuse.Build()), canonicalSeeds},
		{"electrical", build(baseline.Default().Build()), mapper.OuterSeeds},
		{"photonic", mapper.PhotonicTestArch(t), mapper.OuterSeeds},
	}
	layers := []workload.Layer{
		workload.NewConv("conv", 1, 64, 32, 14, 14, 3, 3, 1, 1),
		workload.NewFC("fc", 1, 256, 512),
	}
	type search struct {
		arch  int
		layer int
		opts  mapper.Options
	}
	// Listed interleaved: consecutive searches never share an architecture.
	var searches []search
	for li := range layers {
		for _, workers := range []int{1, 2} {
			for ai := range archs {
				searches = append(searches, search{ai, li, mapper.Options{Budget: 300, Seed: 5, Workers: workers}})
			}
		}
	}
	run := func(sr search) goldenSearch {
		t.Helper()
		ga := archs[sr.arch]
		s, err := mapper.NewSession(ga.a)
		if err != nil {
			t.Fatal(err)
		}
		l := &layers[sr.layer]
		opts := sr.opts
		opts.Seeds = ga.seeds(s, l)
		return goldenRecord(t, s, l, fmt.Sprintf("%s/%s/w%d", ga.name, l.Name, opts.Workers), opts)
	}

	// Before: each architecture's searches back to back.
	want := make([]goldenSearch, len(searches))
	for ai := range archs {
		for i, sr := range searches {
			if sr.arch == ai {
				want[i] = run(sr)
			}
		}
	}
	for round := 0; round < 2; round++ {
		for i, sr := range searches {
			if got := run(sr); got != want[i] {
				t.Fatalf("round %d: %s diverged after interleaving:\n got  %+v\n want %+v",
					round, got.Name, got, want[i])
			}
		}
	}
}

func canonicalSeeds(s *mapper.Session, l *workload.Layer) []*mapping.Mapping {
	return albireo.CanonicalMappings(s.Engine().Arch(), l)
}
