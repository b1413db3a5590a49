package mapping

import (
	"sort"
	"sync"
	"sync/atomic"

	"photoloop/internal/workload"
)

// Divisors returns the positive divisors of n in ascending order.
func Divisors(n int) []int {
	if n < 1 {
		return nil
	}
	var small, large []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			small = append(small, d)
			if d != n/d {
				large = append(large, n/d)
			}
		}
	}
	for i := len(large) - 1; i >= 0; i-- {
		small = append(small, large[i])
	}
	return small
}

// FactorSplits enumerates all ordered k-tuples of positive integers whose
// product is exactly n (divisor-constrained perfect factorizations). The
// count grows combinatorially; intended for small n or small k.
func FactorSplits(n, k int) [][]int {
	if n < 1 || k < 1 {
		return nil
	}
	var out [][]int
	cur := make([]int, k)
	var rec func(rem, idx int)
	rec = func(rem, idx int) {
		if idx == k-1 {
			cur[idx] = rem
			out = append(out, append([]int(nil), cur...))
			return
		}
		for _, d := range Divisors(rem) {
			cur[idx] = d
			rec(rem/d, idx+1)
		}
	}
	rec(n, 0)
	return out
}

// paddedDirect bounds the index-addressed half of the PaddedCandidates
// memo. The mapper's draw loop asks for remaining temporal trip counts,
// which stay far below it; larger bounds go through the sync.Map.
const paddedDirect = 1 << 14

// The PaddedCandidates memo — the mapper asks for the same bounds millions
// of times across random draws. Bounds below paddedDirect are looked up
// lock-free by index, which is what keeps the draw loop cheap; the rest
// (rare, and each one expensive to compute anyway) go through a sync.Map.
var (
	paddedTable [paddedDirect]atomic.Pointer[[]int]
	paddedMap   sync.Map // int -> []int
)

// PaddedCandidates returns candidate tile factors for covering bound n with
// possible padding: every divisor of n, plus ceiling-based factors that
// overshoot (each distinct value of ceil(n/j) for j = 1..n). The result is
// sorted ascending and deduplicated. These are the factor choices a mapper
// should consider at a single level — any other factor is dominated by one
// of these (same coverage, no smaller padding). The result is cached and
// shared — callers must not modify it. It is safe for concurrent use.
func PaddedCandidates(n int) []int {
	if n < 1 {
		return nil
	}
	if n < paddedDirect {
		slot := &paddedTable[n]
		if c := slot.Load(); c != nil {
			return *c
		}
		c := paddedCandidates(n)
		// Concurrent first calls compute equal slices; all of them return
		// the one that won the slot.
		slot.CompareAndSwap(nil, &c)
		return *slot.Load()
	}
	if c, ok := paddedMap.Load(n); ok {
		return c.([]int)
	}
	c, _ := paddedMap.LoadOrStore(n, paddedCandidates(n))
	return c.([]int)
}

// paddedCandidates computes PaddedCandidates(n) without the memo.
func paddedCandidates(n int) []int {
	set := map[int]bool{}
	for _, d := range Divisors(n) {
		set[d] = true
	}
	for j := 1; j <= n; j++ {
		set[workload.CeilDiv(n, j)] = true
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// CoverSplit splits bound n across an inner factor (already fixed, e.g. a
// rigid spatial count) and returns the outer trip count needed to cover it:
// ceil(n / inner), minimum 1.
func CoverSplit(n, inner int) int {
	if n < 1 {
		return 1
	}
	if inner < 1 {
		inner = 1
	}
	return workload.CeilDiv(n, inner)
}

// PaddingWaste returns the fractional over-coverage of factors f covering
// bound n: f*... == n means 0; covering 11 with 12 means 1/12.
func PaddingWaste(covered, n int) float64 {
	if covered <= 0 || n <= 0 || covered <= n {
		return 0
	}
	return float64(covered-n) / float64(covered)
}
