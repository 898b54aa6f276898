package etsc

import (
	"math"

	"etsc/internal/dataset"
	"etsc/internal/ts"
)

// The z-normalized TEASER session does not rescan every reference at every
// snapshot. It keeps, per reference, a running sum each new point advances
// in O(1), derives from it an approximate squared distance per reference
// at each snapshot in O(1), and runs the exact fold only where the
// approximation cannot rule a reference out — the way the UCR suite
// z-normalizes from running sums (Rakthanmanon et al., KDD 2012).
//
// For a stream prefix x of length l, ZNormInto computes the mean m̂ and
// std σ̂ and the prepared query q_i = (x_i − m̂)/σ̂; the stored reference row
// is r_i = (R_i − μ̂_R)·w with ZNormInto's mean μ̂_R and w = 1/σ̂_R for the
// reference prefix R. Centred at first points — y_i = x_i − x_0 and
// C_i = R_i − R_0, exact for nearby values however large the offset — and
// with μ' = m̂ − x_0 and μ_r = μ̂_R − R_0,
//
//	Σ (x_i − m̂)(R_i − μ̂_R) = P − μ'·m − μ_r·(S − l·μ')
//
// where P = Σ y_i·C_i and S = Σ y_i are the session's running sums and
// m = Σ C_i is a training constant. S − l·μ' is zero only in exact
// arithmetic: it carries the rounding of the computed mean m̂ that q is
// centred with, which a large stream offset makes large. Since Σq² and Σr²
// are l up to rounding, d² = Σ (q_i − r_i)² ≈ 2l − 2·score/σ̂ with
// score = (P − μ'·m − μ_r·(S − l·μ'))·w, computed as
// w·P − μ'·(m·w) − (S − l·μ')·(μ_r·w) from training constants.
//
// Error bound, u = 2⁻⁵³. By Cauchy–Schwarz |x_i − m̂| ≤ √l·σ̂ (up to O(l·u)
// relative), so |y_i| ≤ 2√l·σ̂, |μ'| ≤ √l·σ̂, and likewise |C_i| ≤ 2√l·σ̂_R
// and |μ_r| ≤ √l·σ̂_R. A length-l sum is off by at most l·u times the sum of
// its terms' magnitudes, so in units of σ̂·σ̂_R P is off by 4l³u, m·μ' and
// S·μ_r by 2l³u each; the 2l stand-in for Σq² + Σr², the exact fold's own
// rounding and the roundings of y, C, μ', the constants and the final
// products add O(l²u). Doubled for d², |approx − exact| ≤ 16l³u + 56l²u + 40lu, under
// ε = 64·l³·u for every l ≥ 3 (6·10⁻¹⁰ at the words kind's l = 44). The
// bound holds when nothing overflows, so a non-finite approximation is
// always checked, and it needs σ̂ and σ̂_R at or above ZNormInto's minStd
// and finite, so a query or reference outside that is checked exactly.

// zMinStd mirrors ts's minStd: ZNormInto maps a prefix whose std is below
// it to all zeros, which the approximation does not model.
// TestZMinStdMirrorsZNormInto pins the two together.
const zMinStd = 1e-8

// zScan is the training-time half of the z-normalized session scan: the
// references centred at their first point, point-major with each class's
// references contiguous, and per (snapshot, reference) the constants of the
// approximate score. Read-only after training.
type zScan struct {
	order []int         // position k → training instance; each class contiguous
	start []int         // class c holds positions start[c] to start[c+1]−1
	cent  []float64     // cent[i·n+k] = R_i − R_0 of the reference at position k
	snaps [][]zRef      // per snapshot, per position
	rows  [][][]float64 // per snapshot, per position: the stored z-normalized row
}

// zRef holds one reference's constants at one snapshot length l, from what
// ZNormInto computes for its prefix: w = 1/σ̂_R, mw = m·w with the centred
// prefix sum m = Σ C_i, and muw = μ_r·w with the centred mean
// μ_r = μ̂_R − R_0. w is NaN when the approximation does not model the row
// (a constant prefix normalizes to zeros), which makes every score of the
// reference NaN and so always checked.
type zRef struct{ w, mw, muw float64 }

// newZScan lays out train's references for the scan, classes in li order.
func newZScan(train *dataset.Dataset, li *labelIndex) *zScan {
	n, L := train.Len(), train.SeriesLen()
	z := &zScan{order: make([]int, 0, n), start: make([]int, 0, li.classes()+1), cent: make([]float64, L*n)}
	for c := range li.labels {
		z.start = append(z.start, len(z.order))
		for i, ci := range li.classOf {
			if int(ci) == c {
				z.order = append(z.order, i)
			}
		}
	}
	z.start = append(z.start, n)
	for k, i := range z.order {
		r := train.Instances[i].Series
		for p, v := range r {
			z.cent[p*n+k] = v - r[0]
		}
	}
	return z
}

// addSnapshot appends the next snapshot, whose stored rows are set's
// series: their constants, and views of the rows in position order.
func (z *zScan) addSnapshot(train, set *dataset.Dataset) {
	n, l := len(z.order), len(set.Instances[0].Series)
	refs, rows := make([]zRef, n), make([][]float64, n)
	for k, i := range z.order {
		rows[k] = set.Instances[i].Series
		r := train.Instances[i].Series[:l]
		mean, std := ts.MeanStd(r)
		w := math.NaN()
		if modelled(mean, std) {
			w = 1 / std
		}
		m := 0.0
		for p := 0; p < l; p++ {
			m += z.cent[p*n+k]
		}
		refs[k] = zRef{w: w, mw: m * w, muw: (mean - r[0]) * w}
	}
	z.snaps = append(z.snaps, refs)
	z.rows = append(z.rows, rows)
}

// modelled reports whether ZNormInto normalizes a prefix with this mean
// and std the way the approximation assumes: both finite, std at or above
// minStd.
func modelled(mean, std float64) bool {
	return std >= zMinStd && std <= math.MaxFloat64 && math.Abs(mean) <= math.MaxFloat64
}

// score is the reference's score against the query whose running sum with
// it is dot (P), given μ' = mu and t = S − l·μ'.
func (r zRef) score(dot, mu, t float64) float64 {
	return r.w*dot - mu*r.mw - t*r.muw
}

// zD2 is ts.SquaredEuclidean(q, row) for q = ZNormInto(x), given the mean
// and inv = 1/std ZNormInto computes (0 for a prefix under minStd, which it
// maps to zeros), without storing q: each q_i is rounded as ZNormInto
// stores it (the conversion keeps the multiply from fusing into the
// subtraction) and folded left to right as SquaredEuclidean folds.
func zD2(x []float64, mean, inv float64, row []float64) float64 {
	row = row[:len(x)]
	sum := 0.0
	for i, v := range x {
		d := float64((v-mean)*inv) - row[i]
		sum += d * d
	}
	return sum
}

// nearest sets nearest[c] to class c's smallest squared distance from the
// z-normalized prefix x to the snapshot-si references: bit for bit the
// exhaustive scan's strict-< minimum of ts.SquaredEuclidean over the
// class's stored rows. dot and sum are the running sums P and S over x.
//
// Per class, the best-scoring reference gets the exact fold first, then
// every reference whose approximation 2l − 2·score/σ̂, less ε, does not
// exceed the exact best so far; any other one is further than ε past it,
// so it cannot be the minimum. The approximation falls as the score rises,
// so the second pass is skipped when the class's second-best score is
// already out of reach, which is the common case.
func (z *zScan) nearest(si int, x, dot []float64, sum float64, nearest []float64) {
	l := len(x)
	mean, std := ts.MeanStd(x)
	inv := 0.0
	if !(std < zMinStd) {
		inv = 1 / std
	}
	if !modelled(mean, std) {
		for c := range nearest {
			best := math.Inf(1)
			for _, row := range z.rows[si][z.start[c]:z.start[c+1]] {
				if d := zD2(x, mean, inv, row); d < best {
					best = d
				}
			}
			nearest[c] = best
		}
		return
	}
	mu := mean - x[0]
	t := sum - float64(l)*mu
	twoL, twoInv := 2*float64(l), 2/std
	eps := 64 * float64(l*l*l) * 0x1p-53
	for c := range nearest {
		lo, hi := z.start[c], z.start[c+1]
		refs, rows, dot := z.snaps[si][lo:hi], z.rows[si][lo:hi], dot[lo:hi]
		dot = dot[:len(refs)]
		// s1 and s2 are the two largest scores. A NaN or −Inf score, whose
		// approximation (NaN or +Inf) the bound does not cover, makes the
		// scores' sum NaN or infinite, which sends the class to the second
		// pass.
		arg, s1, s2, all := -1, math.Inf(-1), math.Inf(-1), 0.0
		for k, r := range refs {
			s := r.score(dot[k], mu, t)
			all += s
			if s > s2 {
				if s > s1 {
					arg, s1, s2 = k, s, s1
				} else {
					s2 = s
				}
			}
		}
		best := math.Inf(1)
		if arg >= 0 {
			if d := zD2(x, mean, inv, rows[arg]); d < best {
				best = d
			}
		}
		if !(math.Abs(all) <= math.MaxFloat64) || !(twoL-twoInv*s2-eps > best) {
			for k, r := range refs {
				if a := twoL - twoInv*r.score(dot[k], mu, t); k == arg || a-eps > best && a <= math.MaxFloat64 {
					continue
				}
				if d := zD2(x, mean, inv, rows[k]); d < best {
					best = d
				}
			}
		}
		nearest[c] = best
	}
}
