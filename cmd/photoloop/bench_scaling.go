package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"time"

	"photoloop/internal/jobs"
	"photoloop/internal/shard"
	"photoloop/internal/store"
	"photoloop/internal/sweep"
)

// BenchScaling is the sharded-worker scaling measurement: the same sweep
// job run to completion on a cold store with 1, 2 and 4 remote workers
// (coordinator evaluates nothing itself). Searches counts the unique
// layer searches the job needs; every worker count computes exactly that
// many — the leases partition the grid, so adding workers never
// duplicates work — which is the scaling property this machine can
// verify regardless of how many cores it has to parallelize onto.
type BenchScaling struct {
	Cores    int    `json:"cores"`
	Points   int    `json:"points"`
	Searches int    `json:"searches"`
	Note     string `json:"note,omitempty"`
	// Workers maps worker count ("1", "2", "4") to its run.
	Workers map[string]BenchScalingRun `json:"workers"`
}

// BenchScalingRun is one worker count's cold-store job run.
type BenchScalingRun struct {
	WallMS float64 `json:"wall_ms"`
	// StoreLen is the store's unique-search count after the run — equal
	// across worker counts when no work is duplicated.
	StoreLen int `json:"store_len"`
	// Speedup is the 1-worker wall time over this run's.
	Speedup float64 `json:"speedup,omitempty"`
}

// scalingSpec is the benchmark workload: a small grid over a zoo network,
// seeded and single-threaded per search so every run does identical work.
func scalingSpec() jobs.Spec {
	return jobs.Spec{Sweep: &sweep.Spec{
		Name: "bench-scaling",
		Base: sweep.Base{Albireo: &sweep.AlbireoBase{}},
		Axes: []sweep.Axis{
			{Param: "output_lanes", Values: []any{3, 5, 7, 9}},
			{Param: "pixel_lanes", Values: []any{6, 12}},
		},
		Workloads:     []sweep.Workload{{Network: "vgg16"}},
		Budget:        400,
		Seed:          1,
		SearchWorkers: 1,
	}}
}

// benchScaling runs the scaling suite for the given worker counts.
func benchScaling(counts []int) (*BenchScaling, error) {
	sc := &BenchScaling{Cores: runtime.NumCPU(), Workers: map[string]BenchScalingRun{}}
	var base float64
	for _, n := range counts {
		fmt.Fprintf(os.Stderr, "bench: scaling %d worker(s)...\n", n)
		run, points, err := benchScalingRun(n)
		if err != nil {
			return nil, err
		}
		sc.Points = points
		if sc.Searches == 0 {
			sc.Searches = run.StoreLen
		} else if run.StoreLen != sc.Searches {
			return nil, fmt.Errorf("bench: scaling run with %d workers computed %d searches, want %d (duplicated or lost work)",
				n, run.StoreLen, sc.Searches)
		}
		if base == 0 {
			base = run.WallMS
		} else if run.WallMS > 0 {
			run.Speedup = base / run.WallMS
		}
		sc.Workers[strconv.Itoa(n)] = run
	}
	if max := counts[len(counts)-1]; sc.Cores < max {
		sc.Note = fmt.Sprintf("wall-clock scaling is bounded by %d available core(s); work conservation (equal store_len) is the machine-independent signal — see docs/PERFORMANCE.md", sc.Cores)
	}
	return sc, nil
}

// benchScalingRun executes the benchmark job once on a cold store with n
// remote workers, each uploading its results to the coordinator over a
// loopback HTTP server — the topology of `photoloop worker`.
func benchScalingRun(n int) (BenchScalingRun, int, error) {
	var zero BenchScalingRun
	dir, err := os.MkdirTemp("", "photoloop-bench-scaling-*")
	if err != nil {
		return zero, 0, err
	}
	defer os.RemoveAll(dir)

	m, err := jobs.Open(dir)
	if err != nil {
		return zero, 0, err
	}
	defer m.Close()
	m.Shard = shard.NewCoordinator()
	m.ShardLocal = false
	m.Workers = 1
	srv := sweep.NewServer()
	jobs.Attach(srv, m)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		rp := store.NewRemotePersister(hs.URL, nil)
		go func() {
			done <- shard.Work(ctx, &shard.Client{Base: hs.URL}, rp, shard.WorkerOptions{Poll: 5 * time.Millisecond})
		}()
	}

	sp := scalingSpec()
	st, err := m.Submit(sp)
	if err != nil {
		return zero, 0, err
	}
	start := time.Now()
	st, err = m.Run(ctx, st.ID)
	wall := time.Since(start)
	if err != nil {
		return zero, 0, err
	}
	cancel()
	for i := 0; i < n; i++ {
		if werr := <-done; werr != nil {
			return zero, 0, fmt.Errorf("bench: worker: %w", werr)
		}
	}
	return BenchScalingRun{
		WallMS:   float64(wall.Microseconds()) / 1e3,
		StoreLen: m.Store().Len(),
	}, st.Total, nil
}
