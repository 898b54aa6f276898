// Package stats provides the statistical machinery used across the
// reproduction: running moments, Gaussian utilities, kernel density
// estimation (for EDSC-KDE threshold learning), the two-proportion test
// behind the paper's "not statistically significantly different" claim
// (Fig. 8),
// and the Zipf model referenced by the inclusion-problem analysis.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoData is returned when a computation needs at least one observation.
var ErrNoData = errors.New("stats: no data")

// Running accumulates count, mean and variance online (Welford's method).
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// AddAll incorporates every value in xs.
func (r *Running) AddAll(xs []float64) {
	for _, x := range xs {
		r.Add(x)
	}
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the running mean (0 if empty).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the population variance (0 if fewer than 2 observations).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// SampleVar returns the unbiased sample variance.
func (r *Running) SampleVar() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the population standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, Max           float64
	Median, Q1, Q3     float64
	P05, P95           float64
	CoefficientOfVaria float64 // Std/|Mean|; +Inf when Mean == 0 and Std > 0
}

// Describe computes a Summary of xs.
func Describe(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoData
	}
	var r Running
	r.AddAll(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		N:      len(xs),
		Mean:   r.Mean(),
		Std:    r.Std(),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: Quantile(sorted, 0.5),
		Q1:     Quantile(sorted, 0.25),
		Q3:     Quantile(sorted, 0.75),
		P05:    Quantile(sorted, 0.05),
		P95:    Quantile(sorted, 0.95),
	}
	switch {
	case s.Mean != 0:
		s.CoefficientOfVaria = s.Std / math.Abs(s.Mean)
	case s.Std > 0:
		s.CoefficientOfVaria = math.Inf(1)
	}
	return s, nil
}

// Quantile returns the q-quantile (0<=q<=1) of an ascending-sorted sample
// using linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// NormalPDF is the standard normal density at x.
func NormalPDF(x float64) float64 {
	return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
}

// NormalCDF is the standard normal cumulative distribution at x.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// LogGaussianPDF is the log-density of N(mean, std²) at x.
func LogGaussianPDF(x, mean, std float64) float64 {
	z := (x - mean) / std
	return -0.5*z*z - math.Log(std) - 0.5*math.Log(2*math.Pi)
}
