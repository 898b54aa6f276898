package ts

import (
	"fmt"
	"math"
)

// This file provides the incremental distance accumulators behind the
// streaming evaluation engine: state objects that extend a growing query
// prefix by one point in O(1) work per reference series, instead of
// recomputing a full distance in O(l) at every new prefix length. They are
// the layer-1 substrate for the incremental classifier sessions in
// internal/etsc and the candidate-window monitor in internal/stream.

// RunningNorm accumulates the running sum and sum of squares of a growing
// prefix, giving O(1) access to its mean and population variance at the
// current length — the statistics online z-normalization needs.
//
// The mean is accumulated in arrival order, so RunningNorm.Mean is
// bit-identical to ts.Mean over the same points. The variance uses the
// sum-of-squares identity and may differ from the two-pass ts.MeanStd in
// the last few ulps; callers that need bit-exact parity with ZNorm should
// recompute the second moment with a pass over their buffered prefix.
type RunningNorm struct {
	n     int
	sum   float64
	sumSq float64
}

// Add incorporates one point.
func (r *RunningNorm) Add(x float64) {
	r.n++
	r.sum += x
	r.sumSq += x * x
}

// Extend incorporates every point in order.
func (r *RunningNorm) Extend(points []float64) {
	for _, x := range points {
		r.Add(x)
	}
}

// Len returns the number of points accumulated.
func (r *RunningNorm) Len() int { return r.n }

// Mean returns the running mean (0 when empty).
func (r *RunningNorm) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Var returns the running population variance (0 when empty). Negative
// rounding artifacts of the sum-of-squares identity are clamped to 0.
func (r *RunningNorm) Var() float64 {
	if r.n == 0 {
		return 0
	}
	m := r.Mean()
	v := r.sumSq/float64(r.n) - m*m
	if v < 0 {
		v = 0
	}
	return v
}

// Std returns the running population standard deviation.
func (r *RunningNorm) Std() float64 { return math.Sqrt(r.Var()) }

// PrefixDist accumulates the squared Euclidean distance between a growing
// query prefix and a fixed reference series, one point in O(1). It is the
// incremental counterpart of SquaredEuclidean(query[:l], ref[:l]): points
// are added in order, so the running sum is bit-identical to the from-
// scratch computation at every length.
type PrefixDist struct {
	ref       []float64
	n         int
	d2        float64
	abandoned bool
}

// NewPrefixDist starts an accumulator against ref.
func NewPrefixDist(ref []float64) *PrefixDist {
	return &PrefixDist{ref: ref}
}

// Len returns the prefix length accumulated so far.
func (p *PrefixDist) Len() int { return p.n }

// D2 returns the running squared distance (+Inf after an abandon).
func (p *PrefixDist) D2() float64 {
	if p.abandoned {
		return math.Inf(1)
	}
	return p.d2
}

// Extend advances the prefix by the given points and returns the updated
// squared distance. It panics when the extension overruns the reference.
func (p *PrefixDist) Extend(points []float64) float64 {
	if p.n+len(points) > len(p.ref) {
		panic(fmt.Sprintf("ts: PrefixDist extension to %d overruns reference length %d",
			p.n+len(points), len(p.ref)))
	}
	for _, x := range points {
		d := x - p.ref[p.n]
		p.d2 += d * d
		p.n++
	}
	return p.d2
}

// ExtendEA is Extend with early abandoning: as soon as the running sum
// exceeds cutoff, the accumulator is marked abandoned and (+Inf, false) is
// returned; the prefix position still advances past the consumed points.
// Distances only grow as the prefix grows, so an abandoned accumulator can
// never come back under the same cutoff — use in one-shot nearest-neighbour
// scans where cutoff is the best distance so far.
func (p *PrefixDist) ExtendEA(points []float64, cutoff float64) (float64, bool) {
	if p.n+len(points) > len(p.ref) {
		panic(fmt.Sprintf("ts: PrefixDist extension to %d overruns reference length %d",
			p.n+len(points), len(p.ref)))
	}
	if p.abandoned || p.d2 > cutoff {
		p.abandoned = true
		p.n += len(points)
		return math.Inf(1), false
	}
	for i, x := range points {
		d := x - p.ref[p.n]
		p.d2 += d * d
		p.n++
		if p.d2 > cutoff {
			p.abandoned = true
			p.n += len(points) - i - 1
			return math.Inf(1), false
		}
	}
	return p.d2, true
}

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

// RestoreState loads a previously exported (Len, D2) pair into a bank that
// has not been extended yet, placing it exactly where the exporting bank
// stood. Restoring into a used bank, a bank over a different reference
// count, or beyond any reference's length is an error (the snapshot does
// not match this bank's references).
func (b *PrefixDistBank) RestoreState(n int, d2 []float64) error {
	if b.n != 0 {
		return fmt.Errorf("ts: PrefixDistBank restore into a bank already at prefix length %d", b.n)
	}
	if len(d2) != len(b.refs) {
		return fmt.Errorf("ts: PrefixDistBank restore with %d distances over %d references", len(d2), len(b.refs))
	}
	if n < 0 {
		return fmt.Errorf("ts: PrefixDistBank restore to negative prefix length %d", n)
	}
	for i, ref := range b.refs {
		if n > len(ref) {
			return fmt.Errorf("ts: PrefixDistBank restore to prefix length %d overruns reference %d length %d",
				n, i, len(ref))
		}
	}
	copy(b.d2, d2)
	b.n = n
	return nil
}

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

// ZNormPrefixDist accumulates the squared Euclidean distance between the
// *z-normalized* growing query prefix and a fixed reference series that is
// already in z-normalized space, in O(1) per point. This is the streaming
// form of SquaredEuclidean(ZNorm(query[:l]), ref[:l]).
//
// It expands ‖ẑ(x) − y‖² = l + ‖y‖² − 2·(Σxy − μ·Σy)/σ, maintaining the
// cross sum Σxy incrementally and reading μ, σ from a shared RunningNorm,
// with prefix sums of the reference precomputed at construction. The
// result is algebraically equal to the two-pass computation but may differ
// in the last ulps; it trades bit-exactness for O(1) extension and suits
// monitoring paths where decisions have real margins (template envelopes,
// alarm thresholds), not tie-breaking between near-identical references.
//
// A (near-)constant query prefix follows the ZNorm convention: it
// normalizes to all zeros, so the distance degenerates to ‖y‖².
type ZNormPrefixDist struct {
	query *RunningNorm
	ref   []float64
	sy    []float64 // sy[l] = Σ ref[0:l]
	sy2   []float64 // sy2[l] = Σ ref[0:l]²
	sxy   float64   // Σ query·ref over the accumulated prefix
}

// NewZNormPrefixDist starts an accumulator of the z-normalized query
// against ref, sharing the query's RunningNorm (one RunningNorm can feed
// many accumulators; callers must extend it in lockstep with each
// accumulator, accumulator first).
func NewZNormPrefixDist(query *RunningNorm, ref []float64) *ZNormPrefixDist {
	sy := make([]float64, len(ref)+1)
	sy2 := make([]float64, len(ref)+1)
	for i, v := range ref {
		sy[i+1] = sy[i] + v
		sy2[i+1] = sy2[i] + v*v
	}
	return &ZNormPrefixDist{query: query, ref: ref, sy: sy, sy2: sy2}
}

// Extend advances the accumulated cross sum by the given points, which must
// be the same points subsequently added to the shared RunningNorm (the
// accumulator reads only prefix sums of the reference, so the order of
// Extend calls across accumulators sharing one RunningNorm is free as long
// as the RunningNorm is extended after all of them).
func (z *ZNormPrefixDist) Extend(points []float64) {
	n := z.query.Len()
	if n+len(points) > len(z.ref) {
		panic(fmt.Sprintf("ts: ZNormPrefixDist extension to %d overruns reference length %d",
			n+len(points), len(z.ref)))
	}
	for i, x := range points {
		z.sxy += x * z.ref[n+i]
	}
}

// D2 returns the squared distance between the z-normalized query prefix at
// its current length and the reference truncated to the same length.
func (z *ZNormPrefixDist) D2() float64 {
	l := z.query.Len()
	if l == 0 {
		return 0
	}
	std := z.query.Std()
	if std < minStd {
		// ZNorm convention: constant query normalizes to all zeros.
		return z.sy2[l]
	}
	mu := z.query.Mean()
	return float64(l) + z.sy2[l] - 2*(z.sxy-mu*z.sy[l])/std
}
