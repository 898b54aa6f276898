// Package ts provides the time series primitives that every other package in
// this repository builds on: z-normalization, Euclidean and DTW distances,
// sliding-window subsequence extraction, smoothing, resampling, and the
// perturbations ("denormalization") used by the paper's Table 1 experiment.
//
// All functions operate on []float64 and are deterministic. Functions that
// allocate return fresh slices; functions with a ...Into variant write into a
// caller-provided buffer to support tight streaming loops.
package ts

import (
	"errors"
	"fmt"
	"math"
)

// Series is a one-dimensional, uniformly sampled time series.
type Series []float64

// ErrEmpty is returned by operations that require at least one point.
var ErrEmpty = errors.New("ts: empty series")

// ErrLengthMismatch is returned by pairwise operations on unequal lengths.
var ErrLengthMismatch = errors.New("ts: length mismatch")

// Clone returns a copy of s.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Prefix returns the first n points of s (a view, not a copy). If n exceeds
// len(s), the whole series is returned.
func (s Series) Prefix(n int) Series {
	if n >= len(s) {
		return s
	}
	if n < 0 {
		n = 0
	}
	return s[:n]
}

// Mean returns the arithmetic mean of s. It returns 0 for an empty series.
func Mean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// MeanStd returns the mean and the population standard deviation of s.
// An empty series yields (0, 0).
func MeanStd(s []float64) (mean, std float64) {
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	mean = Mean(s)
	ss := 0.0
	for _, v := range s {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(n))
}

// Std returns the population standard deviation of s.
func Std(s []float64) float64 {
	_, sd := MeanStd(s)
	return sd
}

// minStd is the standard deviation below which a series is treated as
// constant for normalization purposes. Z-normalizing a constant region would
// otherwise amplify numerical noise into arbitrary shapes, a well-known
// pitfall in subsequence matching.
const minStd = 1e-8

// ZNorm returns a z-normalized copy of s: zero mean, unit standard
// deviation. A (near-)constant series normalizes to all zeros rather than
// dividing by ~0.
func ZNorm(s []float64) Series {
	out := make(Series, len(s))
	ZNormInto(out, s)
	return out
}

// ZNormInto z-normalizes src into dst, which must have the same length.
func ZNormInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("ts: ZNormInto length mismatch %d != %d", len(dst), len(src)))
	}
	mean, std := MeanStd(src)
	if std < minStd {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	inv := 1 / std
	for i, v := range src {
		dst[i] = (v - mean) * inv
	}
}

// IsZNormalized reports whether s already has |mean| <= tol and
// |std-1| <= tol. Constant series (std≈0 after the all-zeros convention)
// also count as normalized.
func IsZNormalized(s []float64, tol float64) bool {
	mean, std := MeanStd(s)
	if math.Abs(mean) > tol {
		return false
	}
	if std < minStd { // all-zeros convention
		return true
	}
	return math.Abs(std-1) <= tol
}

// Shift returns a copy of s with offset added to every point. This is the
// "denormalization" perturbation of the paper's Fig. 6 / Table 1.
func Shift(s []float64, offset float64) Series {
	out := make(Series, len(s))
	for i, v := range s {
		out[i] = v + offset
	}
	return out
}

// Scale returns a copy of s with every point multiplied by factor.
func Scale(s []float64, factor float64) Series {
	out := make(Series, len(s))
	for i, v := range s {
		out[i] = v * factor
	}
	return out
}

// Add returns the pointwise sum a+b.
func Add(a, b []float64) (Series, error) {
	if len(a) != len(b) {
		return nil, ErrLengthMismatch
	}
	out := make(Series, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out, nil
}

// Concat concatenates the given series into one.
func Concat(parts ...[]float64) Series {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make(Series, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// MinMax returns the minimum and maximum of s. It panics on empty input.
func MinMax(s []float64) (lo, hi float64) {
	if len(s) == 0 {
		panic("ts: MinMax of empty series")
	}
	lo, hi = s[0], s[0]
	for _, v := range s[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Resample linearly interpolates s onto n uniformly spaced points spanning
// the same support. n must be >= 2 and len(s) >= 2.
func Resample(s []float64, n int) (Series, error) {
	if len(s) < 2 || n < 2 {
		return nil, fmt.Errorf("ts: Resample needs len>=2 and n>=2 (len=%d n=%d)", len(s), n)
	}
	out := make(Series, n)
	scale := float64(len(s)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		x := float64(i) * scale
		j := int(x)
		if j >= len(s)-1 {
			out[i] = s[len(s)-1]
			continue
		}
		frac := x - float64(j)
		out[i] = s[j]*(1-frac) + s[j+1]*frac
	}
	return out, nil
}

// MovingAverage returns the centered moving average of s with the given
// window (made odd by rounding up). Edges use the available points.
func MovingAverage(s []float64, window int) Series {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	out := make(Series, len(s))
	// Prefix sums for O(n) averaging.
	prefix := make([]float64, len(s)+1)
	for i, v := range s {
		prefix[i+1] = prefix[i] + v
	}
	for i := range s {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(s) {
			hi = len(s)
		}
		out[i] = (prefix[hi] - prefix[lo]) / float64(hi-lo)
	}
	return out
}
