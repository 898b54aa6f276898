package ts

import (
	"fmt"
	"math"
)

// This file provides the incremental distance accumulator behind the
// streaming evaluation engine: PrefixDistBank extends a growing query
// prefix by each new point in O(1) work per reference series, instead of
// recomputing a full distance in O(l) at every new prefix length. It is the
// layer-1 substrate for the bank-backed classifier sessions in
// internal/etsc (ECTS and ProbThreshold).

// extendD2 advances a running squared-distance accumulation over one more
// segment of points against the aligned reference segment. It is the
// reference batch-extend kernel every prefix-distance path is pinned
// against — PrefixDistBank runs it through its blocked row form
// extendD2Rows (extend_rows.go), and everything byte-identical to the bank
// inherits it — so the summation order is load-bearing: a strict
// left-to-right fold, one `acc += d*d` per point, exactly the order the
// plain loop and SquaredEuclidean use. The 4-way unrolling only amortizes
// loop and bounds-check overhead; it must never introduce partial sums,
// which would reassociate the floating-point additions and break the
// bit-identical contract.
func extendD2(acc float64, points, ref []float64) float64 {
	if len(ref) < len(points) {
		panic(fmt.Sprintf("ts: extendD2 reference segment %d shorter than points %d", len(ref), len(points)))
	}
	i := 0
	for ; i+4 <= len(points); i += 4 {
		d0 := points[i] - ref[i]
		acc += d0 * d0
		d1 := points[i+1] - ref[i+1]
		acc += d1 * d1
		d2 := points[i+2] - ref[i+2]
		acc += d2 * d2
		d3 := points[i+3] - ref[i+3]
		acc += d3 * d3
	}
	for ; i < len(points); i++ {
		d := points[i] - ref[i]
		acc += d * d
	}
	return acc
}

// PrefixDistBank tracks the running squared Euclidean distance from one
// growing query prefix to every series of a fixed reference set (typically
// a training set). Each Extend costs O(len(refs) · len(points)); the
// per-series sums are bit-identical to SquaredEuclidean at every length.
type PrefixDistBank struct {
	refs [][]float64
	n    int
	d2   []float64
}

// NewPrefixDistBank starts a bank over refs; all references must be at
// least as long as the prefixes that will be accumulated.
func NewPrefixDistBank(refs [][]float64) *PrefixDistBank {
	return &PrefixDistBank{refs: refs, d2: make([]float64, len(refs))}
}

// Len returns the prefix length accumulated so far.
func (b *PrefixDistBank) Len() int { return b.n }

// Size returns the number of reference series.
func (b *PrefixDistBank) Size() int { return len(b.refs) }

// D2 returns the running squared distances, one per reference. The slice
// is owned by the bank; callers must not modify it.
func (b *PrefixDistBank) D2() []float64 { return b.d2 }

// Extend advances the query prefix by the given points. All references are
// bounds-checked up front, then the whole bank advances through the blocked
// extendD2Rows kernel — one batch-of-points × batch-of-references pass,
// bit-identical per reference to the scalar extendD2 walk.
func (b *PrefixDistBank) Extend(points []float64) {
	if len(points) == 0 {
		return
	}
	for i, ref := range b.refs {
		if b.n+len(points) > len(ref) {
			panic(fmt.Sprintf("ts: PrefixDistBank extension to %d overruns reference %d length %d",
				b.n+len(points), i, len(ref)))
		}
	}
	extendD2Rows(b.d2, points, b.refs, b.n)
	b.n += len(points)
}

// Min returns the index and squared distance of the nearest reference
// (first index wins ties); (-1, +Inf) for an empty bank.
func (b *PrefixDistBank) Min() (index int, d2 float64) {
	index, d2 = -1, math.Inf(1)
	for i, d := range b.d2 {
		if d < d2 {
			index, d2 = i, d
		}
	}
	return index, d2
}
