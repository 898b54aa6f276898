package stats

import "testing"

func TestTwoProportionZTest(t *testing.T) {
	// Identical proportions: z = 0, p = 1.
	r, err := TwoProportionZTest(50, 100, 50, 100, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Statistic != 0 || !almostEqual(r.PValue, 1, 1e-9) || r.Significant {
		t.Errorf("identical proportions: %+v", r)
	}

	// Clearly different proportions: significant.
	r, err = TwoProportionZTest(90, 100, 50, 100, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Significant {
		t.Errorf("90%% vs 50%% should be significant: %+v", r)
	}

	// Small difference, small samples: not significant.
	r, err = TwoProportionZTest(18, 20, 17, 20, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Significant {
		t.Errorf("18/20 vs 17/20 should not be significant: %+v", r)
	}

	// Degenerate: all successes on both sides.
	r, err = TwoProportionZTest(20, 20, 20, 20, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Significant {
		t.Errorf("identical perfect proportions significant: %+v", r)
	}
}

func TestTwoProportionZTestErrors(t *testing.T) {
	if _, err := TwoProportionZTest(1, 0, 1, 2, 0.05); err == nil {
		t.Error("zero trials should error")
	}
	if _, err := TwoProportionZTest(3, 2, 1, 2, 0.05); err == nil {
		t.Error("successes > trials should error")
	}
}
