package ts

import (
	"fmt"
	"math"
)

// SquaredEuclidean returns the squared Euclidean distance between equal
// length series a and b. It panics on length mismatch: distance calls sit in
// the innermost loops of every experiment and callers are expected to have
// validated shapes at data-load time.
func SquaredEuclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ts: SquaredEuclidean length mismatch %d != %d", len(a), len(b)))
	}
	sum := 0.0
	for i, v := range a {
		d := v - b[i]
		sum += d * d
	}
	return sum
}

// Euclidean returns the Euclidean distance between equal-length series.
func Euclidean(a, b []float64) float64 {
	return math.Sqrt(SquaredEuclidean(a, b))
}

// SquaredEuclideanEA computes the squared Euclidean distance with early
// abandoning: as soon as the running sum exceeds cutoff, it returns
// (+Inf, false). Use in nearest-neighbour scans where cutoff is the
// best-so-far distance.
func SquaredEuclideanEA(a, b []float64, cutoff float64) (float64, bool) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ts: SquaredEuclideanEA length mismatch %d != %d", len(a), len(b)))
	}
	sum := 0.0
	for i, v := range a {
		d := v - b[i]
		sum += d * d
		if sum > cutoff {
			return math.Inf(1), false
		}
	}
	return sum, true
}

// DTW returns the Dynamic Time Warping distance between a and b with a
// Sakoe-Chiba band of the given radius (in points). radius < 0 means an
// unconstrained full warping window. The local cost is squared difference
// and the returned value is the square root of the accumulated cost, so
// DTW with radius 0 equals the Euclidean distance for equal-length inputs.
func DTW(a, b []float64, radius int) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		if n == 0 && m == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if radius < 0 {
		radius = max(n, m)
	}
	// Band must be wide enough to connect (0,0) to (n-1,m-1).
	if d := absInt(n - m); radius < d {
		radius = d
	}

	const inf = math.MaxFloat64
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0

	for i := 1; i <= n; i++ {
		lo := max(1, i-radius)
		hi := min(m, i+radius)
		cur[0] = inf
		for j := 1; j < lo; j++ {
			cur[j] = inf
		}
		for j := lo; j <= hi; j++ {
			d := a[i-1] - b[j-1]
			cost := d * d
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if cur[j-1] < best {
				best = cur[j-1] // deletion
			}
			cur[j] = cost + best
		}
		for j := hi + 1; j <= m; j++ {
			cur[j] = inf
		}
		prev, cur = cur, prev
	}
	return math.Sqrt(prev[m])
}

// ZNormEuclidean z-normalizes both inputs and returns their Euclidean
// distance. This is the similarity the paper (and [24]) argues is the only
// meaningful way to compare time series shapes.
func ZNormEuclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ts: ZNormEuclidean length mismatch %d != %d", len(a), len(b)))
	}
	za := ZNorm(a)
	zb := ZNorm(b)
	return Euclidean(za, zb)
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
