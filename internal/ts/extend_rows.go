package ts

import (
	"fmt"
	"math"
)

// extendD2Rows advances every row's running squared-distance accumulation
// by the same batch of query points: acc[i] picks up the aligned segment
// refs[i][from : from+len(points)]. It is the batched form of extendD2 and
// inherits its contract verbatim: each row is a strict left-to-right fold,
// one `acc += d*d` per point, so every acc[i] is bit-identical to
// extendD2(acc[i], points, refs[i][from:...]) — pinned by the batch-vs-
// scalar battery and fuzz in extend_rows_test.go. Blocking must therefore
// happen only *across* rows (independent accumulators), never within one
// (partial sums would reassociate the floating-point additions).
//
// The kernel blocks four rows at a time with the accumulators in locals and
// a shared inner pass over points — four independent dependency chains,
// full-slice-expression row views to hoist bounds checks, the layout the
// compiler can keep in registers.
//
// Callers must validate segment bounds first: the kernel assumes every
// refs[i] has at least from+len(points) elements.
func extendD2Rows(acc []float64, points []float64, refs [][]float64, from int) {
	n := len(points)
	i := 0
	for ; i+4 <= len(refs); i += 4 {
		r0 := refs[i][from : from+n : from+n]
		r1 := refs[i+1][from : from+n : from+n]
		r2 := refs[i+2][from : from+n : from+n]
		r3 := refs[i+3][from : from+n : from+n]
		a0, a1, a2, a3 := acc[i], acc[i+1], acc[i+2], acc[i+3]
		for j, x := range points {
			d0 := x - r0[j]
			a0 += d0 * d0
			d1 := x - r1[j]
			a1 += d1 * d1
			d2 := x - r2[j]
			a2 += d2 * d2
			d3 := x - r3[j]
			a3 += d3 * d3
		}
		acc[i], acc[i+1], acc[i+2], acc[i+3] = a0, a1, a2, a3
	}
	for ; i < len(refs); i++ {
		acc[i] = extendD2(acc[i], points, refs[i][from:from+n])
	}
}

// GroupMinD2 sets best[g] to the smallest squared Euclidean distance from q
// to the leading len(q) points of any row refs[i] with group[i] == g, and
// to +Inf for a group no row belongs to. It is a full nearest-neighbour
// scan with no early abandoning: rows run four at a time through
// extendD2Rows, so every distance is the strict left-to-right fold and
// equals SquaredEuclidean(q, refs[i][:len(q)]) bit for bit. Each distance
// folds into its group's minimum with a strict <, so a NaN never wins and
// the minima do not depend on row order. It panics, like
// PrefixDistBank.Extend, if a row is shorter than q.
func GroupMinD2(best, q []float64, refs [][]float64, group []int32) {
	for i, ref := range refs {
		if len(ref) < len(q) {
			panic(fmt.Sprintf("ts: GroupMinD2 row %d length %d shorter than query %d", i, len(ref), len(q)))
		}
	}
	for g := range best {
		best[g] = math.Inf(1)
	}
	for i := 0; i < len(refs); i += 4 {
		block := refs[i:min(i+4, len(refs))]
		var acc [4]float64
		extendD2Rows(acc[:len(block)], q, block, 0)
		for k, d := range acc[:len(block)] {
			if g := group[i+k]; d < best[g] {
				best[g] = d
			}
		}
	}
}
