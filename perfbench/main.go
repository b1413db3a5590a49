// Command perfbench is photoloop's benchmark: one command that runs a
// workload generated from a seed, checks every output the program
// produces, and prints the workload's end-to-end metrics (untraced run) or
// per-layer metrics (traced run) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	figs         closed loop, 1 caller: exp.Fig4 + exp.Fig5 + an explore run per pass
//	eval-serve   closed loop, 2 clients: POST /v1/eval to an in-process sweep.Server
//	sharded-job  repeated cycles: a cold then a warm sharded sweep job with one remote worker
//
// Every timing is host time: setup_s in seconds, the other end-to-end
// timings in units of a calibration computation timed in the same run
// (see calibration), the per-layer ones in ns to s. mapping_pj_per_mac
// is simulated energy. The program is called only through its public
// package functions and interfaces. Run it through run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload figs --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// gomaxprocs is pinned so that worker pools sized from GOMAXPROCS, and
// with them the mapper's counters, do not depend on the host.
const gomaxprocs = 2

// setupReps is how many times a run builds its fixture; setup_s is the
// median.
const setupReps = 5

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // directory for scratch stores and trace files
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run: operation outcomes, both metric families,
// and the notes (sample counts, shares) that qualify them.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Host      host              `json:"host"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	ErrorRate float64           `json:"error_rate"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Notes     map[string]any    `json:"notes"`
}

func newReport(o *options) *report {
	return &report{
		Workload: o.workload, Seed: o.seed, Traced: o.trace,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}, Notes: map[string]any{},
	}
}

// op records one attempted operation; a non-nil err (a failed call or a
// failed correctness check) counts it as failed.
func (r *report) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, err.Error())
		}
	}
}

func (r *report) e2e(name, unit string, v float64)   { r.EndToEnd[name] = metric{v, unit} }
func (r *report) layer(name, unit string, v float64) { r.PerLayer[name] = metric{v, unit} }

// workloads maps each workload name to its runner.
var workloads = map[string]func(*options, *report) error{
	"figs":        runFigs,
	"eval-serve":  runEvalServe,
	"sharded-job": runShardedJob,
}

func main() {
	o := &options{}
	flag.StringVar(&o.workload, "workload", "", "workload to run: figs, eval-serve or sharded-job")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced end-to-end run")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for scratch stores and trace files")
	flag.Parse()
	o.trace = *traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	rep, err := execute(o)
	if err != nil {
		return err
	}
	printSummary(rep)
	metrics := rep.EndToEnd
	if o.trace {
		metrics = rep.PerLayer
	}
	line, err := json.Marshal(result{
		Correct:   rep.Failed == 0 && rep.Attempted > 0,
		Attempted: max(rep.Attempted, 1),
		Failed:    rep.Failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// execute runs one workload and stores its report.
func execute(o *options) (*report, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want figs, eval-serve or sharded-job)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	runtime.GOMAXPROCS(gomaxprocs)
	if err := os.MkdirAll(o.work, 0o777); err != nil {
		return nil, err
	}
	rep := newReport(o)
	rep.Host = hostInfo()
	if err := fn(o, rep); err != nil {
		return nil, err
	}
	if rep.Attempted > 0 {
		rep.ErrorRate = float64(rep.Failed) / float64(rep.Attempted)
	}
	return rep, writeReport(o, rep)
}

// writeReport stores the full report — host block, notes, both metric
// families and the run's spans — next to the other scratch files.
func writeReport(o *options, rep *report) error {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	path := filepath.Join(o.work, "results", fmt.Sprintf("%s-seed%d-%s.json", o.workload, o.seed, mode))
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o666)
}

// printSummary writes the human-readable account to standard error.
func printSummary(rep *report) {
	h, _ := json.Marshal(rep.Host)
	fmt.Fprintf(os.Stderr, "host: %s\n", h)
	fmt.Fprintf(os.Stderr, "%s seed=%d traced=%v: %d operations, %d failed (error_rate %.4g)\n",
		rep.Workload, rep.Seed, rep.Traced, rep.Attempted, rep.Failed, rep.ErrorRate)
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "  FAIL:", f)
	}
	family, m := "end-to-end", rep.EndToEnd
	if rep.Traced {
		family, m = "per-layer", rep.PerLayer
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-10s %-28s %14.6g %s\n", family, n, m[n].Value, m[n].Unit)
	}
	notes := make([]string, 0, len(rep.Notes))
	for n := range rep.Notes {
		notes = append(notes, n)
	}
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(os.Stderr, "  note       %-28s %v\n", n, rep.Notes[n])
	}
}

// deadline is the end of a measured window that starts now.
func deadline(o *options) time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}

// timedSetup runs setup setupReps times and returns the median seconds
// with the last repetition's product; discard, when set, releases the
// products of the earlier repetitions.
func timedSetup[T any](setup func() (T, error), discard func(T)) (T, float64, error) {
	var out T
	var ds []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return out, 0, err
		}
		ds = append(ds, seconds(time.Since(start)))
		if i < setupReps-1 && discard != nil {
			discard(v)
		}
		out = v
	}
	return out, median(ds), nil
}

// overhead is the traced median over the untraced median, minus one.
func overhead(untraced, traced []float64) float64 {
	return ratio(median(traced), median(untraced)) - 1
}

// reportPartial keeps a run whose operations failed reportable: the
// failure is already counted, the metrics gathered so far stand.
func reportPartial(rep *report, err error) error {
	rep.Notes["aborted"] = err.Error()
	return nil
}
