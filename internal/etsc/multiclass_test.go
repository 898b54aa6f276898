package etsc

import (
	"math"
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/synth"
	"etsc/internal/ts"
)

// fourClassSplit builds a 4-class word dataset — none of the algorithms
// may assume binary classification.
func fourClassSplit(t testing.TB) (train, test *dataset.Dataset) {
	t.Helper()
	d, err := synth.WordDataset(synth.NewRand(31), []string{"cat", "dog", "light", "paper"},
		16, 60, synth.DefaultWordConfig())
	if err != nil {
		t.Fatal(err)
	}
	train, test, err = d.Split(synth.NewRand(32), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestAllClassifiersHandleFourClasses(t *testing.T) {
	train, test := fourClassSplit(t)
	ctx := serialContext(t, train)
	builders := []func() (EarlyClassifier, error){
		func() (EarlyClassifier, error) { return trainECTS(ctx, false, 0) },
		func() (EarlyClassifier, error) { return trainECTS(ctx, true, 0) },
		func() (EarlyClassifier, error) {
			cfg := DefaultEDSCConfig(CHE)
			cfg.MinLen, cfg.MaxLen = 10, 30
			return newEDSC(train, cfg, 1)
		},
		func() (EarlyClassifier, error) {
			cfg := DefaultEDSCConfig(KDE)
			cfg.MinLen, cfg.MaxLen = 10, 30
			return newEDSC(train, cfg, 1)
		},
		func() (EarlyClassifier, error) { return trainRelClass(train, DefaultRelClassConfig(false)) },
		func() (EarlyClassifier, error) { return trainRelClass(train, DefaultRelClassConfig(true)) },
		func() (EarlyClassifier, error) { return trainTEASER(ctx, DefaultTEASERConfig()) },
		func() (EarlyClassifier, error) { return trainProbThreshold(train, 0.7, 5) },
		func() (EarlyClassifier, error) { return trainCostAware(ctx, DefaultCostAwareConfig()) },
		func() (EarlyClassifier, error) { return trainECDIRE(ctx, DefaultECDIREConfig()) },
	}
	for _, mk := range builders {
		c, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		s, err := Evaluate(c, test, 2)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		t.Logf("%-24s 4-class accuracy %.3f earliness %.2f", c.Name(), s.Accuracy(), s.MeanEarliness())
		// Chance is 0.25; require clear learning.
		if s.Accuracy() < 0.6 {
			t.Errorf("%s: 4-class accuracy %.3f too close to chance", c.Name(), s.Accuracy())
		}
		// Predictions must come from the label set.
		valid := map[int]bool{}
		for _, l := range train.Labels() {
			valid[l] = true
		}
		for _, o := range s.Outcomes {
			if !valid[o.Predicted] {
				t.Errorf("%s predicted label %d outside the label set", c.Name(), o.Predicted)
				break
			}
		}
	}
}

// TestTEASERShiftScaleInvariance is the footnote-2 property: because
// TEASER z-normalizes its own prefixes, its decisions are invariant to any
// per-exemplar affine transform with positive scale.
func TestTEASERShiftScaleInvariance(t *testing.T) {
	train, test := fourClassSplit(t)
	c, err := trainTEASER(serialContext(t, train), DefaultTEASERConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := synth.NewRand(5)
	for _, in := range test.Instances[:8] {
		offset := (rng.Float64()*2 - 1) * 10
		scale := 0.3 + rng.Float64()*5
		transformed := ts.Shift(ts.Scale(in.Series, scale), offset)
		l1, a1, f1 := RunOne(c, in.Series, 3)
		l2, a2, f2 := RunOne(c, transformed, 3)
		if l1 != l2 || a1 != a2 || f1 != f2 {
			t.Errorf("TEASER decision changed under affine transform: (%d@%d,%v) vs (%d@%d,%v)",
				l1, a1, f1, l2, a2, f2)
		}
	}
}

// TestFlawedModelsAreNotShiftInvariant is the contrast property: at least
// one decision of each raw-prefix model changes under a large shift
// (otherwise the Table 1 experiment would be measuring nothing).
func TestFlawedModelsAreNotShiftInvariant(t *testing.T) {
	train, test := fourClassSplit(t)
	ctx := serialContext(t, train)
	builders := []func() (EarlyClassifier, error){
		func() (EarlyClassifier, error) { return trainECTS(ctx, false, 0) },
		func() (EarlyClassifier, error) { return trainRelClass(train, DefaultRelClassConfig(false)) },
		func() (EarlyClassifier, error) { return trainProbThreshold(train, 0.7, 5) },
	}
	for _, mk := range builders {
		c, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		changed := false
		for _, in := range test.Instances {
			l1, a1, _ := RunOne(c, in.Series, 3)
			l2, a2, _ := RunOne(c, ts.Shift(in.Series, 2.5), 3)
			if l1 != l2 || a1 != a2 {
				changed = true
				break
			}
		}
		if !changed {
			t.Errorf("%s: no decision changed under a 2.5 shift — not actually consuming raw values?", c.Name())
		}
	}
}

// TestTEASERPosteriorDeterministic pins PosteriorPrefix on a 4-class set to
// the shared dense softmin core: every repeated call returns the same bits,
// reduced in sorted label order. A softmin summed in map order differs in
// the last ulps from call to call once there are three or more classes.
func TestTEASERPosteriorDeterministic(t *testing.T) {
	train, test := fourClassSplit(t)
	c, err := trainTEASER(serialContext(t, train), DefaultTEASERConfig())
	if err != nil {
		t.Fatal(err)
	}
	k := c.li.classes()
	nearest, post := make([]float64, k), make([]float64, k)
	for _, in := range test.Instances[:8] {
		for si, l := range c.lengths {
			prepared := c.prepare(si, in.Series[:l])
			d2 := make([]float64, c.slaveSet(si).Len())
			for i, in := range c.slaveSet(si).Instances {
				d2[i] = ts.SquaredEuclidean(prepared, in.Series)
			}
			c.li.nearestFromSquaredDists(d2, nearest)
			softminDenseInto(nearest, 1, post)
			for rep := 0; rep < 30; rep++ {
				got := c.PosteriorPrefix(in.Series[:l])
				if len(got) != k {
					t.Fatalf("snapshot %d: %d classes, want %d", si, len(got), k)
				}
				for ci, lab := range c.li.labels {
					if math.Float64bits(got[lab]) != math.Float64bits(post[ci]) {
						t.Fatalf("snapshot %d call %d: P(%d) = %v, shared core %v", si, rep, lab, got[lab], post[ci])
					}
				}
			}
		}
	}
}
