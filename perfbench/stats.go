package main

import (
	"bufio"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// host is the machine block recorded with every result: the mapper's
// counters depend on worker counts, and wall-clock numbers on the CPU.
type host struct {
	CPUModel      string `json:"cpu_model"`
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	GOARCH        string `json:"goarch"`
	SearchWorkers int    `json:"search_workers"`
	PointWorkers  int    `json:"point_workers"`
	Clients       int    `json:"clients"`
}

func hostInfo() host {
	return host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the processor name the kernel reports ("unknown" where
// /proc/cpuinfo does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean is the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s) // a fixed summation order makes the result repeat exactly
	n, logs := 0, 0.0
	for _, x := range s {
		if x > 0 {
			logs += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logs / float64(n))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }

// heapSampler tracks the peak bytes of live heap objects (as marked by
// the latest GC), sampled every few milliseconds from runtime/metrics,
// which unlike ReadMemStats does not stop the world. Live bytes depend
// less than total heap bytes on when the collector happens to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			h.mu.Lock()
			h.peak = max(h.peak, sample[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler (on the first call) and returns the peak in
// MiB.
func (h *heapSampler) peakMB() float64 {
	h.once.Do(func() { close(h.stop) })
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// calValues is the calibration's fixed input.
var calValues = func() []float64 {
	r := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	return xs
}()

var calSink atomic.Int64

// calibration samples the host's current speed with a fixed
// standard-library computation on every core: sorting a copy of
// calValues and filling a map. On a shared 2-vCPU virtual machine the
// host's speed drifted by up to 2x over minutes, the workloads and this
// computation slowing alike; timings divided by the calibration time
// cancel most of that drift, so the end-to-end timings are reported in
// calibration units ("cal"). Samples are taken between operations, never
// while the workload runs.
type calibration struct{ ms []float64 }

// take runs the reference computation n times.
func (c *calibration) take(n int) {
	for i := 0; i < n; i++ {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < gomaxprocs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				xs := append([]float64(nil), calValues...)
				sort.Float64s(xs)
				m := make(map[int]int)
				for j := 0; j < len(xs); j++ {
					m[j*7919%100003] += j
				}
				calSink.Add(int64(len(m)))
			}()
		}
		wg.Wait()
		c.ms = append(c.ms, millis(time.Since(start)))
	}
}

// reportTimes reports a workload's timings both in calibration units (the
// end-to-end metrics) and in host milliseconds (notes).
func reportTimes(rep *report, cal *calibration, opsPerSec, fastMS, slowMS float64) {
	calMS := median(cal.ms)
	setE2E(rep, "ops_per_cal", opsPerSec*calMS/1e3)
	setE2E(rep, "fast_cal_p50", fastMS/calMS)
	setE2E(rep, "slow_cal_p50", slowMS/calMS)
	rep.Notes["ops_per_s"] = opsPerSec
	rep.Notes["fast_ms_p50"] = fastMS
	rep.Notes["slow_ms_p50"] = slowMS
	rep.Notes["cal_ms"] = calMS
	rep.Notes["cal_samples"] = len(cal.ms)
}
