package stats

import (
	"errors"
	"math"
)

// TestResult is the outcome of a two-sided hypothesis test.
type TestResult struct {
	Statistic   float64 // z or t statistic
	PValue      float64 // two-sided p-value
	Significant bool    // PValue < Alpha
	Alpha       float64
}

// TwoProportionZTest tests H0: p1 == p2 given successes/trials for two
// independent samples, using the pooled two-proportion z-test. This is the
// test behind the paper's Fig. 8 claim that the truncated dustbathing
// template's precision "is not statistically significantly different" from
// the full template's.
func TwoProportionZTest(success1, trials1, success2, trials2 int, alpha float64) (TestResult, error) {
	if trials1 <= 0 || trials2 <= 0 {
		return TestResult{}, errors.New("stats: TwoProportionZTest needs positive trial counts")
	}
	if success1 < 0 || success1 > trials1 || success2 < 0 || success2 > trials2 {
		return TestResult{}, errors.New("stats: success count out of range")
	}
	p1 := float64(success1) / float64(trials1)
	p2 := float64(success2) / float64(trials2)
	pooled := float64(success1+success2) / float64(trials1+trials2)
	se := math.Sqrt(pooled * (1 - pooled) * (1/float64(trials1) + 1/float64(trials2)))
	var z float64
	if se == 0 {
		z = 0 // both proportions identical and degenerate
	} else {
		z = (p1 - p2) / se
	}
	p := 2 * (1 - NormalCDF(math.Abs(z)))
	return TestResult{Statistic: z, PValue: p, Significant: p < alpha, Alpha: alpha}, nil
}
