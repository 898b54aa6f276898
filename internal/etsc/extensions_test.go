package etsc

import (
	"testing"

	"etsc/internal/synth"
)

func TestCostAwareBasics(t *testing.T) {
	train, test := easySplit(t)
	c, err := trainCostAware(serialContext(t, train), DefaultCostAwareConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Evaluate(c, test, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s accuracy %.3f earliness %.2f", c.Name(), s.Accuracy(), s.MeanEarliness())
	if s.Accuracy() < 0.9 {
		t.Errorf("accuracy %.3f on separable data", s.Accuracy())
	}
	if s.MeanEarliness() > 0.9 {
		t.Errorf("earliness %.3f; cost-aware rule should not always wait", s.MeanEarliness())
	}
}

func TestCostAwareDelayPressure(t *testing.T) {
	// Raising the delay cost must not delay decisions.
	train, test := easySplit(t)
	cheap := DefaultCostAwareConfig()
	cheap.DelayCost = 0.05
	expensive := DefaultCostAwareConfig()
	expensive.DelayCost = 5
	cc, err := trainCostAware(serialContext(t, train), cheap)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := trainCostAware(serialContext(t, train), expensive)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Evaluate(cc, test, 2)
	if err != nil {
		t.Fatal(err)
	}
	se, err := Evaluate(ce, test, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("delay 0.05: earliness %.3f; delay 5: earliness %.3f", sc.MeanEarliness(), se.MeanEarliness())
	if se.MeanEarliness() > sc.MeanEarliness()+1e-9 {
		t.Errorf("higher delay cost decided later: %.3f vs %.3f", se.MeanEarliness(), sc.MeanEarliness())
	}
}

func TestCostAwareValidation(t *testing.T) {
	train, _ := easySplit(t)
	cfg := DefaultCostAwareConfig()
	cfg.MisclassCost = 0
	if _, err := trainCostAware(serialContext(t, train), cfg); err == nil {
		t.Error("zero misclass cost should error")
	}
	cfg = DefaultCostAwareConfig()
	cfg.DelayCost = -1
	if _, err := trainCostAware(serialContext(t, train), cfg); err == nil {
		t.Error("negative delay cost should error")
	}
	if _, err := Train(MustParseSpec("costaware"), nil); err == nil {
		t.Error("nil train should error")
	}
}

func TestECDIREBasics(t *testing.T) {
	train, test := easySplit(t)
	e, err := trainECDIRE(serialContext(t, train), DefaultECDIREConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Evaluate(e, test, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s accuracy %.3f earliness %.2f forced %.2f", e.Name(), s.Accuracy(), s.MeanEarliness(), s.ForcedFraction())
	if s.Accuracy() < 0.9 {
		t.Errorf("accuracy %.3f on separable data", s.Accuracy())
	}
	if s.MeanEarliness() > 0.9 {
		t.Errorf("earliness %.3f", s.MeanEarliness())
	}
	for _, label := range train.Labels() {
		sl := e.SafeLength(label)
		if sl < 1 || sl > e.FullLength() {
			t.Errorf("safe length %d out of range", sl)
		}
	}
	if e.SafeLength(99) != e.FullLength() {
		t.Error("unknown class safe length should be full length")
	}
}

func TestECDIREValidation(t *testing.T) {
	train, _ := easySplit(t)
	cfg := DefaultECDIREConfig()
	cfg.AccFraction = 0
	if _, err := trainECDIRE(serialContext(t, train), cfg); err == nil {
		t.Error("AccFraction 0 should error")
	}
	cfg = DefaultECDIREConfig()
	cfg.AccFraction = 1.5
	if _, err := trainECDIRE(serialContext(t, train), cfg); err == nil {
		t.Error("AccFraction > 1 should error")
	}
	if _, err := Train(MustParseSpec("ecdire"), nil); err == nil {
		t.Error("nil train should error")
	}
}

// TestExtensionsShareTheFlaw verifies that the cost-aware and ECDIRE
// variants, faithful to their published formulations, also plunge under
// denormalization — they are not exempt from §4.
func TestExtensionsShareTheFlaw(t *testing.T) {
	train, test := gunPointSplit(t)
	ctx := serialContext(t, train)
	denorm := test.Denormalize(synth.NewRand(99), 1.0)
	builders := []func() (EarlyClassifier, error){
		func() (EarlyClassifier, error) { return trainCostAware(ctx, DefaultCostAwareConfig()) },
		func() (EarlyClassifier, error) { return trainECDIRE(ctx, DefaultECDIREConfig()) },
	}
	for _, mk := range builders {
		c, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		n, err := Evaluate(c, test, 2)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Evaluate(c, denorm, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: normalized %.3f denormalized %.3f", c.Name(), n.Accuracy(), d.Accuracy())
		if drop := n.Accuracy() - d.Accuracy(); drop < 0.05 {
			t.Errorf("%s: drop %.3f; the raw-prefix flaw should cost noticeably", c.Name(), drop)
		}
	}
}
