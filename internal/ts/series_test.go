package ts

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanStd(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		mean float64
		std  float64
	}{
		{"constant", []float64{2, 2, 2, 2}, 2, 0},
		{"simple", []float64{1, 2, 3, 4, 5}, 3, math.Sqrt(2)},
		{"negative", []float64{-1, 1}, 0, 1},
		{"single", []float64{7}, 7, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mean, std := MeanStd(c.in)
			if !almostEqual(mean, c.mean, 1e-12) {
				t.Errorf("mean = %v, want %v", mean, c.mean)
			}
			if !almostEqual(std, c.std, 1e-12) {
				t.Errorf("std = %v, want %v", std, c.std)
			}
		})
	}
}

func TestMeanStdEmpty(t *testing.T) {
	mean, std := MeanStd(nil)
	if mean != 0 || std != 0 {
		t.Errorf("MeanStd(nil) = %v, %v, want 0, 0", mean, std)
	}
}

func TestZNorm(t *testing.T) {
	s := Series{3, 5, 7, 9, 11}
	z := ZNorm(s)
	if !IsZNormalized(z, 1e-9) {
		t.Errorf("ZNorm output not z-normalized: %v", z)
	}
	// Original must be untouched.
	if s[0] != 3 {
		t.Errorf("ZNorm mutated its input")
	}
}

func TestZNormConstant(t *testing.T) {
	z := ZNorm([]float64{4, 4, 4})
	for i, v := range z {
		if v != 0 {
			t.Errorf("constant series z-norm[%d] = %v, want 0", i, v)
		}
	}
	if !IsZNormalized(z, 1e-9) {
		t.Error("all-zeros convention should count as normalized")
	}
}

func TestZNormProperty(t *testing.T) {
	// Property: z-normalization is idempotent and shift/scale invariant.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(64)
		s := make(Series, n)
		for i := range s {
			s[i] = rng.NormFloat64()*5 + 3
		}
		z1 := ZNorm(s)
		z2 := ZNorm(z1)
		for i := range z1 {
			if !almostEqual(z1[i], z2[i], 1e-9) {
				return false
			}
		}
		shifted := Shift(Scale(s, 3.7), -12.3)
		z3 := ZNorm(shifted)
		for i := range z1 {
			if !almostEqual(z1[i], z3[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShiftScaleAdd(t *testing.T) {
	s := Series{1, 2, 3}
	if got := Shift(s, 1); got[0] != 2 || got[2] != 4 {
		t.Errorf("Shift wrong: %v", got)
	}
	if got := Scale(s, 2); got[0] != 2 || got[2] != 6 {
		t.Errorf("Scale wrong: %v", got)
	}
	sum, err := Add(s, Series{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum[2] != 4 {
		t.Errorf("Add wrong: %v", sum)
	}
	if _, err := Add(s, Series{1}); err != ErrLengthMismatch {
		t.Errorf("Add length mismatch: got %v", err)
	}
}

func TestPrefix(t *testing.T) {
	s := Series{1, 2, 3, 4}
	if got := s.Prefix(2); len(got) != 2 || got[1] != 2 {
		t.Errorf("Prefix(2) = %v", got)
	}
	if got := s.Prefix(10); len(got) != 4 {
		t.Errorf("Prefix(10) should clamp, got len %d", len(got))
	}
	if got := s.Prefix(-1); len(got) != 0 {
		t.Errorf("Prefix(-1) should be empty, got len %d", len(got))
	}
}

func TestResample(t *testing.T) {
	s := Series{0, 1, 2, 3}
	r, err := Resample(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 7 {
		t.Fatalf("len = %d, want 7", len(r))
	}
	if !almostEqual(r[0], 0, 1e-12) || !almostEqual(r[6], 3, 1e-12) {
		t.Errorf("endpoints wrong: %v", r)
	}
	if !almostEqual(r[3], 1.5, 1e-12) {
		t.Errorf("midpoint = %v, want 1.5", r[3])
	}
	// Identity when n == len.
	r2, err := Resample(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if !almostEqual(r2[i], s[i], 1e-12) {
			t.Errorf("identity resample differs at %d: %v", i, r2)
		}
	}
	if _, err := Resample(Series{1}, 5); err == nil {
		t.Error("expected error for too-short input")
	}
	if _, err := Resample(s, 1); err == nil {
		t.Error("expected error for n < 2")
	}
}

func TestMovingAverage(t *testing.T) {
	s := Series{0, 0, 6, 0, 0}
	m := MovingAverage(s, 3)
	if !almostEqual(m[2], 2, 1e-12) {
		t.Errorf("centre = %v, want 2", m[2])
	}
	if !almostEqual(m[0], 0, 1e-12) {
		t.Errorf("edge = %v, want 0", m[0])
	}
	// Window 1 is identity.
	id := MovingAverage(s, 1)
	for i := range s {
		if id[i] != s[i] {
			t.Errorf("window-1 not identity at %d", i)
		}
	}
}

func TestMovingAveragePreservesMeanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(100)
		s := make(Series, n)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		sm := MovingAverage(s, 5)
		// Smoothing cannot expand the range.
		lo, hi := MinMax(s)
		slo, shi := MinMax(sm)
		return slo >= lo-1e-9 && shi <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiffReverseConcat(t *testing.T) {
	c := Concat(Series{1}, Series{2, 3})
	if len(c) != 3 || c[2] != 3 {
		t.Errorf("Concat = %v", c)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax(Series{3, -1, 4, 1, 5})
	if lo != -1 || hi != 5 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinMax of empty should panic")
		}
	}()
	MinMax(nil)
}
