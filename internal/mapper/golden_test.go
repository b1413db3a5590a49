package mapper_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/arch"
	"photoloop/internal/mapper"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// goldenSearch is one pinned search outcome: everything a search returns
// that a scheduling change could perturb.
type goldenSearch struct {
	Name        string             `json:"name"`
	Mapping     string             `json:"mapping"`
	TotalPJBits string             `json:"total_pj_bits"`
	Evaluations int                `json:"evaluations"`
	Stats       mapper.SearchStats `json:"stats"`
}

const goldenPath = "testdata/search_golden.json"

// seededArch is an architecture under golden test with its seed source.
type seededArch struct {
	name  string
	a     *arch.Arch
	seeds func(s *mapper.Session, l *workload.Layer) []*mapping.Mapping
}

func goldenArchs(t *testing.T) []seededArch {
	t.Helper()
	alb, err := albireo.Default(albireo.Conservative).Build()
	if err != nil {
		t.Fatal(err)
	}
	return []seededArch{
		{"photonic", mapper.PhotonicTestArch(t), mapper.OuterSeeds},
		{"albireo", alb, func(s *mapper.Session, l *workload.Layer) []*mapping.Mapping {
			return albireo.CanonicalMappings(s.Engine().Arch(), l)
		}},
	}
}

// goldenBudgets returns the search budgets for n seeds over w workers:
// every worker's share below the seed count (two distinct shares when w
// does not divide the budget), shares of n-1 and n straddling it, shares
// well above it, the default budget, and a budget leaving some workers
// with nothing.
func goldenBudgets(n, w int) map[string]int {
	b := map[string]int{
		"below":    w*(n/2) + w/2,
		"straddle": w*(n-1) + w/2,
		"above":    w * (n + 60),
		"default":  1000,
	}
	if w == 1 {
		b["straddle"] = n
	}
	if w > 5 {
		b["starved"] = 5
	}
	return b
}

// runGoldenSearches runs the pinned search matrix: both architectures,
// a conv and an fc layer, 1/2/3/8 workers, MinEnergy and MinEDP, with and
// without warm starts, every budget of goldenBudgets, and the oracle
// sampler on a subset.
func runGoldenSearches(t *testing.T) []goldenSearch {
	t.Helper()
	layers := []workload.Layer{
		workload.NewConv("conv", 1, 32, 16, 14, 14, 3, 3, 1, 1),
		workload.NewFC("fc", 1, 128, 256),
	}
	var out []goldenSearch
	for _, ga := range goldenArchs(t) {
		s, err := mapper.NewSession(ga.a)
		if err != nil {
			t.Fatal(err)
		}
		for li := range layers {
			l := &layers[li]
			seeds := ga.seeds(s, l)
			warmSrc, err := s.Search(l, mapper.Options{Budget: 600, Seed: 99, Workers: 1, Seeds: seeds})
			if err != nil {
				t.Fatal(err)
			}
			warmSets := map[string][]*mapping.Mapping{
				"cold": nil,
				"warm": {warmSrc.Mapping, nil},
			}
			for _, workers := range []int{1, 2, 3, 8} {
				for bname, budget := range goldenBudgets(len(seeds), workers) {
					for _, obj := range []mapper.Objective{mapper.MinEnergy, mapper.MinEDP} {
						for wname, warm := range warmSets {
							opts := mapper.Options{Objective: obj, Budget: budget, Seed: 7, Workers: workers,
								Seeds: seeds, WarmStarts: warm}
							name := fmt.Sprintf("%s/%s/w%d/%s/%v/%s", ga.name, l.Name, workers, bname, obj, wname)
							out = append(out, goldenRecord(t, s, l, name, opts))
							if wname == "cold" && (workers == 1 || workers == 3) {
								out = append(out, goldenRecord(t, s, l, name+"/oracle", mapper.Oracle(opts)))
							}
						}
					}
				}
			}
		}
	}
	slices.SortFunc(out, func(x, y goldenSearch) int { return strings.Compare(x.Name, y.Name) })
	return out
}

func goldenRecord(t *testing.T, s *mapper.Session, l *workload.Layer, name string, opts mapper.Options) goldenSearch {
	t.Helper()
	best, err := s.Search(l, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return goldenSearch{
		Name:        name,
		Mapping:     best.Mapping.String(),
		TotalPJBits: strconv.FormatUint(math.Float64bits(best.Result.TotalPJ), 16),
		Evaluations: best.Evaluations,
		Stats:       best.Stats,
	}
}

// TestSearchGolden pins seeded search outcomes — the best mapping, the
// bits of its energy, the evaluation count and every SearchStats counter —
// against testdata/search_golden.json. Scheduling changes inside a search
// (how the seed phase is shared between workers, how worker state is
// pooled) must leave all of it unchanged. Regenerate the file with
// UPDATE_GOLDEN=1 only when a change is meant to move search results.
func TestSearchGolden(t *testing.T) {
	got := runGoldenSearches(t)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d searches to %s", len(got), goldenPath)
		return
	}
	checkGolden(t, got)
}

// TestSeedPassHandoffSingleProc runs searches on one OS thread, where a
// search's workers run one after another, the last one started first: every
// state a finished worker puts back into the process-wide pool is there for
// its siblings to take. A worker that took such a state would stage its
// first candidates on top of the sibling's last mapping for the same
// Compiled. The golden matrix must still match, and so must staged search
// and the oracle on per-worker budgets a little above the seed count with
// a warm start: those send every worker from phase 0 straight into the
// hill climb, whose first candidate shares most levels with the carried
// delta baseline.
func TestSeedPassHandoffSingleProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	checkGolden(t, runGoldenSearches(t))
	l := workload.NewConv("conv", 1, 32, 16, 14, 14, 3, 3, 1, 1)
	for _, ga := range goldenArchs(t) {
		s, err := mapper.NewSession(ga.a)
		if err != nil {
			t.Fatal(err)
		}
		seeds := ga.seeds(s, &l)
		warm, err := s.Search(&l, mapper.Options{Budget: 600, Seed: 99, Workers: 1, Seeds: seeds})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{3, 8} {
			for _, extra := range []int{5, 10, 15} {
				for _, obj := range []mapper.Objective{mapper.MinEnergy, mapper.MinEDP} {
					opts := mapper.Options{Objective: obj, Budget: (len(seeds) + extra) * workers, Seed: 7,
						Workers: workers, Seeds: seeds, WarmStarts: []*mapping.Mapping{warm.Mapping}}
					name := fmt.Sprintf("%s/w%d/+%d/%v", ga.name, workers, extra, obj)
					got := goldenRecord(t, s, &l, name, opts)
					want := goldenRecord(t, s, &l, name, mapper.Oracle(opts))
					if got.Mapping != want.Mapping || got.TotalPJBits != want.TotalPJBits {
						t.Errorf("%s: staged %s (%s), oracle %s (%s)", name,
							got.Mapping, got.TotalPJBits, want.Mapping, want.TotalPJBits)
					}
				}
			}
		}
	}
}

// checkGolden compares search outcomes with testdata/search_golden.json.
func checkGolden(t *testing.T, got []goldenSearch) {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenSearch
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]goldenSearch, len(want))
	for _, w := range want {
		byName[w.Name] = w
	}
	if len(got) != len(want) {
		t.Errorf("%d searches, golden has %d", len(got), len(want))
	}
	for _, g := range got {
		w, ok := byName[g.Name]
		if !ok {
			t.Errorf("%s: not in the golden file", g.Name)
			continue
		}
		if g != w {
			t.Errorf("%s diverged:\n got  %+v\n want %+v", g.Name, g, w)
		}
	}
}
