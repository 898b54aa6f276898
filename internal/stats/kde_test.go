package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestKDEIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	k := NewKDE(samples, 0)
	// Numeric integration over a wide interval.
	sum := 0.0
	dx := 0.01
	for x := -8.0; x < 8; x += dx {
		sum += k.PDF(x) * dx
	}
	if !almostEqual(sum, 1, 0.01) {
		t.Errorf("PDF integrates to %v", sum)
	}
}

func TestKDEPeaksNearData(t *testing.T) {
	k := NewKDE([]float64{5, 5.1, 4.9, 5.05}, 0)
	if k.PDF(5) < k.PDF(3) {
		t.Error("density should peak near the data")
	}
	if k.N() != 4 {
		t.Errorf("N = %d", k.N())
	}
}

func TestKDEDegenerate(t *testing.T) {
	// Identical samples: bandwidth floor keeps the PDF finite.
	k := NewKDE([]float64{2, 2, 2}, 0)
	if math.IsInf(k.PDF(2), 1) || math.IsNaN(k.PDF(2)) {
		t.Errorf("degenerate PDF = %v", k.PDF(2))
	}
	empty := NewKDE(nil, 0)
	if empty.PDF(0) != 0 {
		t.Error("empty KDE should be zero")
	}
}

func TestCrossingBelow(t *testing.T) {
	// Target density concentrated near 0, non-target near 4: the crossing
	// should sit between them.
	target := NewKDE([]float64{0.1, 0.2, 0.3, 0.15, 0.25}, 0.1)
	non := NewKDE([]float64{3.8, 4.0, 4.2, 3.9, 4.1}, 0.1)
	thr := CrossingBelow(target, non, 1, 1, 0, 5, 500)
	if thr < 0.3 || thr > 3.8 {
		t.Errorf("threshold %v should separate the clusters", thr)
	}
	// If A never dominates at lo, the result is lo.
	thr = CrossingBelow(non, target, 1, 1, 0, 1, 100)
	if thr != 0 {
		t.Errorf("threshold %v, want lo=0", thr)
	}
}
