package etsc

import (
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/synth"
)

func gunPointSplit(t testing.TB) (train, test *dataset.Dataset) {
	t.Helper()
	d, err := synth.GunPoint(synth.NewRand(42), synth.DefaultGunPointConfig())
	if err != nil {
		t.Fatal(err)
	}
	train, test, err = d.Split(synth.NewRand(7), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

// TestTable1Mechanics verifies the paper's central §4 claim for every
// algorithm in Table 1: apparently-good accuracy on UCR-normalized test
// data that plunges when each test exemplar is shifted by a uniform offset
// in [-1, 1].
func TestTable1Mechanics(t *testing.T) {
	train, test := gunPointSplit(t)
	denorm := test.Denormalize(synth.NewRand(99), 1.0)
	ctx := serialContext(t, train)

	build := []struct {
		name string
		make func() (EarlyClassifier, error)
	}{
		{"ECTS", func() (EarlyClassifier, error) { return trainECTS(ctx, false, 0) }},
		{"RelaxedECTS", func() (EarlyClassifier, error) { return trainECTS(ctx, true, 0) }},
		{"EDSC-CHE", func() (EarlyClassifier, error) { return newEDSC(train, DefaultEDSCConfig(CHE), 1) }},
		{"EDSC-KDE", func() (EarlyClassifier, error) { return newEDSC(train, DefaultEDSCConfig(KDE), 1) }},
		{"RelClass", func() (EarlyClassifier, error) { return trainRelClass(train, DefaultRelClassConfig(false)) }},
		{"LDG-RelClass", func() (EarlyClassifier, error) { return trainRelClass(train, DefaultRelClassConfig(true)) }},
	}
	for _, b := range build {
		b := b
		t.Run(b.name, func(t *testing.T) {
			c, err := b.make()
			if err != nil {
				t.Fatal(err)
			}
			norm, err := Evaluate(c, test, 2)
			if err != nil {
				t.Fatal(err)
			}
			den, err := Evaluate(c, denorm, 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: normalized %.3f (earliness %.2f, forced %.2f) denormalized %.3f",
				c.Name(), norm.Accuracy(), norm.MeanEarliness(), norm.ForcedFraction(), den.Accuracy())
			if norm.Accuracy() < 0.75 {
				t.Errorf("normalized accuracy %.3f too low — should look 'apparently very good'", norm.Accuracy())
			}
			if drop := norm.Accuracy() - den.Accuracy(); drop < 0.10 {
				t.Errorf("denormalization drop %.3f too small — flawed algorithms must plunge", drop)
			}
		})
	}
}

// TestTEASERSurvivesDenormalization verifies footnote 2: TEASER
// z-normalizes its own prefixes and must NOT plunge.
func TestTEASERSurvivesDenormalization(t *testing.T) {
	train, test := gunPointSplit(t)
	denorm := test.Denormalize(synth.NewRand(99), 1.0)
	c, err := trainTEASER(serialContext(t, train), DefaultTEASERConfig())
	if err != nil {
		t.Fatal(err)
	}
	norm, err := Evaluate(c, test, 2)
	if err != nil {
		t.Fatal(err)
	}
	den, err := Evaluate(c, denorm, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("TEASER: normalized %.3f (earliness %.2f, forced %.2f) denormalized %.3f",
		norm.Accuracy(), norm.MeanEarliness(), norm.ForcedFraction(), den.Accuracy())
	if norm.Accuracy() < 0.75 {
		t.Errorf("TEASER normalized accuracy %.3f too low", norm.Accuracy())
	}
	if drop := norm.Accuracy() - den.Accuracy(); drop > 0.05 {
		t.Errorf("TEASER should survive denormalization; dropped %.3f", drop)
	}
	if norm.MeanEarliness() > 0.95 {
		t.Errorf("TEASER earliness %.3f — should classify early, not at full length", norm.MeanEarliness())
	}
}
