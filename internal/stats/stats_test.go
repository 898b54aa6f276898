package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunning(t *testing.T) {
	var r Running
	r.AddAll([]float64{1, 2, 3, 4, 5})
	if r.N() != 5 {
		t.Errorf("N = %d", r.N())
	}
	if !almostEqual(r.Mean(), 3, 1e-12) {
		t.Errorf("Mean = %v", r.Mean())
	}
	if !almostEqual(r.Var(), 2, 1e-12) {
		t.Errorf("Var = %v", r.Var())
	}
	if !almostEqual(r.SampleVar(), 2.5, 1e-12) {
		t.Errorf("SampleVar = %v", r.SampleVar())
	}
}

func TestRunningZeroAndOne(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.Std() != 0 {
		t.Error("empty accumulator should be all zeros")
	}
	r.Add(7)
	if r.Mean() != 7 || r.Var() != 0 {
		t.Error("single observation: mean 7, var 0")
	}
}

func TestRunningMatchesDirectProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		var r Running
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
			r.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		v := 0.0
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		v /= float64(n)
		return almostEqual(r.Mean(), mean, 1e-9) && almostEqual(r.Var(), v, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDescribe(t *testing.T) {
	s, err := Describe([]float64{4, 1, 3, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary %+v", s)
	}
	if !almostEqual(s.Median, 3, 1e-12) {
		t.Errorf("median %v", s.Median)
	}
	if _, err := Describe(nil); err != ErrNoData {
		t.Errorf("want ErrNoData, got %v", err)
	}
}

func TestDescribeCV(t *testing.T) {
	s, _ := Describe([]float64{0, 0, 0})
	if s.CoefficientOfVaria != 0 {
		t.Errorf("constant-zero CV = %v", s.CoefficientOfVaria)
	}
	s, _ = Describe([]float64{-1, 1})
	if !math.IsInf(s.CoefficientOfVaria, 1) {
		t.Errorf("zero-mean CV = %v, want +Inf", s.CoefficientOfVaria)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestNormalPDFCDF(t *testing.T) {
	if !almostEqual(NormalPDF(0), 1/math.Sqrt(2*math.Pi), 1e-12) {
		t.Error("PDF(0)")
	}
	if !almostEqual(NormalCDF(0), 0.5, 1e-12) {
		t.Error("CDF(0)")
	}
	if !almostEqual(NormalCDF(1.96)-NormalCDF(-1.96), 0.95, 1e-3) {
		t.Error("95% interval")
	}
	// CDF monotone.
	for x := -4.0; x < 4; x += 0.5 {
		if NormalCDF(x) > NormalCDF(x+0.5) {
			t.Errorf("CDF not monotone at %v", x)
		}
	}
}

func TestLogGaussianPDF(t *testing.T) {
	if !almostEqual(math.Exp(LogGaussianPDF(3, 3, 2)), NormalPDF(0)/2, 1e-12) {
		t.Error("LogGaussianPDF at mean")
	}
	lp := LogGaussianPDF(1.3, 0.5, 1.7)
	if !almostEqual(math.Exp(lp), NormalPDF((1.3-0.5)/1.7)/1.7, 1e-12) {
		t.Error("LogGaussianPDF inconsistent with NormalPDF")
	}
}
