package etsc

import (
	"math"
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/synth"
	"etsc/internal/ts"
)

// easySplit returns a trivially separable two-class dataset: constant low
// vs constant high with tiny noise — every algorithm must ace it and
// commit early.
func easySplit(t testing.TB) (train, test *dataset.Dataset) {
	t.Helper()
	rng := synth.NewRand(77)
	var instances []dataset.Instance
	n := 60
	for i := 0; i < 24; i++ {
		lo := make(ts.Series, n)
		hi := make(ts.Series, n)
		for j := 0; j < n; j++ {
			x := float64(j) / float64(n)
			lo[j] = math.Sin(2*math.Pi*x) + rng.NormFloat64()*0.05
			hi[j] = -math.Sin(2*math.Pi*x) + rng.NormFloat64()*0.05
		}
		instances = append(instances,
			dataset.Instance{Label: 1, Series: ts.ZNorm(lo)},
			dataset.Instance{Label: 2, Series: ts.ZNorm(hi)})
	}
	d, err := dataset.New("easy", instances)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err = d.Split(synth.NewRand(78), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func allClassifiers(t testing.TB, train *dataset.Dataset) []EarlyClassifier {
	t.Helper()
	ects, err := trainECTS(serialContext(t, train), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	rects, err := trainECTS(serialContext(t, train), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	edscCfg := DefaultEDSCConfig(CHE)
	edscCfg.MinLen = 10
	edscCfg.MaxLen = 30
	che, err := newEDSC(train, edscCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	kdeCfg := DefaultEDSCConfig(KDE)
	kdeCfg.MinLen = 10
	kdeCfg.MaxLen = 30
	kde, err := newEDSC(train, kdeCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := trainRelClass(train, DefaultRelClassConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	ldg, err := trainRelClass(train, DefaultRelClassConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	teaser, err := trainTEASER(serialContext(t, train), DefaultTEASERConfig())
	if err != nil {
		t.Fatal(err)
	}
	prob, err := trainProbThreshold(train, 0.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := trainFixedPrefix(serialContext(t, train), 20, true)
	if err != nil {
		t.Fatal(err)
	}
	return []EarlyClassifier{ects, rects, che, kde, rc, ldg, teaser, prob, fixed}
}

// TestAllClassifiersAceEasyProblem exercises every algorithm end to end on
// a separable problem: high accuracy AND genuinely early decisions.
func TestAllClassifiersAceEasyProblem(t *testing.T) {
	train, test := easySplit(t)
	for _, c := range allClassifiers(t, train) {
		s, err := Evaluate(c, test, 2)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		t.Logf("%-24s accuracy %.3f earliness %.2f forced %.2f harmonic %.3f",
			c.Name(), s.Accuracy(), s.MeanEarliness(), s.ForcedFraction(), s.HarmonicMean())
		if s.Accuracy() < 0.9 {
			t.Errorf("%s: accuracy %.3f on a separable problem", c.Name(), s.Accuracy())
		}
		if s.MeanEarliness() > 0.9 {
			t.Errorf("%s: earliness %.3f — should commit before the end", c.Name(), s.MeanEarliness())
		}
	}
}

// TestClassifyPrefixIsPure verifies the interface contract: calling
// ClassifyPrefix with interleaved prefixes of different series gives the
// same decisions as sequential calls.
func TestClassifyPrefixIsPure(t *testing.T) {
	train, test := easySplit(t)
	a := test.Instances[0].Series
	b := test.Instances[1].Series
	for _, c := range allClassifiers(t, train) {
		da1 := c.ClassifyPrefix(a[:20])
		_ = c.ClassifyPrefix(b[:35])
		_ = c.ClassifyPrefix(b[:10])
		da2 := c.ClassifyPrefix(a[:20])
		if da1 != da2 {
			t.Errorf("%s: ClassifyPrefix not pure: %+v vs %+v", c.Name(), da1, da2)
		}
	}
}

func TestSummaryMetrics(t *testing.T) {
	s := Summary{
		Full: 100,
		Outcomes: []Outcome{
			{Predicted: 1, Actual: 1, Length: 20},
			{Predicted: 1, Actual: 2, Length: 60, Forced: false},
			{Predicted: 2, Actual: 2, Length: 100, Forced: true},
			{Predicted: 2, Actual: 2, Length: 40},
		},
	}
	if got := s.Accuracy(); got != 0.75 {
		t.Errorf("accuracy %v", got)
	}
	if got := s.MeanEarliness(); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("earliness %v", got)
	}
	if got := s.ForcedFraction(); got != 0.25 {
		t.Errorf("forced %v", got)
	}
	h := s.HarmonicMean()
	want := 2 * 0.75 * 0.45 / (0.75 + 0.45)
	if math.Abs(h-want) > 1e-12 {
		t.Errorf("harmonic %v, want %v", h, want)
	}
	if (Summary{}).Accuracy() != 0 || (Summary{}).HarmonicMean() != 0 {
		t.Error("empty summary conventions")
	}
}

func TestEvaluateErrors(t *testing.T) {
	train, _ := easySplit(t)
	c, err := trainProbThreshold(train, 0.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(c, nil, 1); err == nil {
		t.Error("nil test should error")
	}
	short, err := dataset.New("short", []dataset.Instance{{Label: 1, Series: ts.Series{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(c, short, 1); err == nil {
		t.Error("short test series should error")
	}
}

func TestTraceRunRecordsPosteriors(t *testing.T) {
	train, test := easySplit(t)
	c, err := trainProbThreshold(train, 0.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	points := etscTrace(c, test.Instances[0].Series)
	if len(points) == 0 {
		t.Fatal("no trace points")
	}
	sawPosterior := false
	sawDecision := false
	for _, p := range points {
		if len(p.Posterior) == 2 {
			sawPosterior = true
			sum := 0.0
			for _, v := range p.Posterior {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("posterior sums to %v", sum)
			}
		}
		if p.Decision.Ready {
			sawDecision = true
		}
	}
	if !sawPosterior {
		t.Error("no posteriors recorded")
	}
	if !sawDecision {
		t.Error("no decision recorded on a separable exemplar")
	}
}

func etscTrace(c EarlyClassifier, s []float64) []TracePoint {
	return TraceRun(c, s, 2)
}
