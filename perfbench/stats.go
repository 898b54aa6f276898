package main

import (
	"math"
	"sort"

	"etsc/internal/stream"
)

// A latency sample of math.Inf(1) is a miss: a push or detection that
// failed, was refused, or never arrived. Misses sort above every real
// latency, so they count against every percentile.
var miss = math.Inf(1)

// missValueMs stands in for a percentile that landed on a miss in the JSON
// result, which cannot carry +Inf.
const missValueMs = 1e9

// tailQuantile is the quantile reported as a "p99": 0.99 when at least ten
// samples lie beyond it, otherwise the highest quantile that still has ten
// samples beyond it, and never below the median.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
// An empty sample returns NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// latencySummary is a latency sample reduced to what the result reports.
type latencySummary struct {
	N      int     // samples, misses included
	Misses int     // failed or refused operations
	P50    float64 // median, ms
	P90    float64 // 90th percentile, ms
	Tail   float64 // the tailQuantile(N) quantile, ms
	TailQ  float64 // which quantile Tail is
}

// summarize reduces latencies (ms, misses as +Inf) to median and tail.
func summarize(ms []float64) latencySummary {
	s := latencySummary{N: len(ms), TailQ: tailQuantile(len(ms))}
	for _, v := range ms {
		if math.IsInf(v, 1) {
			s.Misses++
		}
	}
	xs := append([]float64(nil), ms...)
	s.P50 = quantile(xs, 0.5)
	s.P90 = quantile(xs, 0.9)
	s.Tail = quantile(xs, s.TailQ)
	return s
}

// reportable maps a percentile onto a JSON-safe number: a percentile that
// fell on a miss reads missValueMs.
func reportable(v float64) float64 {
	if math.IsInf(v, 1) {
		return missValueMs
	}
	return v
}

// settlePoints returns, per detection in transcript order, the stream
// index of the last point the detection's settlement needed. An
// unverified detection settles at its DecisionAt. A verified one settles
// when its whole window has arrived, at Start+window-1. The hub settles a
// transcript as a prefix, so no detection settles before the one ahead of
// it.
func settlePoints(dets []stream.Detection, verified bool, window int) []int {
	out := make([]int, len(dets))
	prev := -1
	for i, d := range dets {
		p := d.DecisionAt
		if verified {
			p = d.Start + window - 1
		}
		if p < prev {
			p = prev
		}
		out[i] = p
		prev = p
	}
	return out
}

// median returns the median of xs, the mean of the middle two for an even
// count, without modifying xs (NaN when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quietStealShare is the most CPU time the host may steal from a window,
// as a share of the machine's ticks, for the window to count as quiet:
// at one tick in two hundred (one-second windows on two CPUs) latencies
// match those of windows with none, from two on they grow.
const quietStealShare = 0.01

// quietest returns, in time order, the indexes of the quiet windows: those
// with less steal than quietStealShare, or when fewer than a third of them
// are, the third (rounded up) with the least steal, the earlier of two
// equal windows first.
func quietest(steal []float64) []int {
	var idx []int
	for i, s := range steal {
		if s < quietStealShare {
			idx = append(idx, i)
		}
	}
	k := (len(steal) + 2) / 3
	if len(idx) >= k {
		return idx
	}
	idx = idx[:0]
	for i := range steal {
		idx = append(idx, i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:k]
	sort.Ints(idx)
	return idx
}

// rising reports whether a backlog series trends upward: the mean of its
// last third exceeds the mean of its first third by more than slack
// batches and by more than half. Short series never count as rising.
func rising(backlog []float64, slack float64) bool {
	n := len(backlog) / 3
	if n < 2 {
		return false
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	first, last := mean(backlog[:n]), mean(backlog[len(backlog)-n:])
	return last > first+slack && last > 1.5*first
}
