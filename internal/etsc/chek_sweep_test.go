package etsc

import (
	"testing"

	"etsc/internal/synth"
)

// TestCHEKSweep logs EDSC-CHE accuracy across Chebyshev k values; tuning
// aid, never fails.
func TestCHEKSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning sweep")
	}
	train, test := gunPointSplit(t)
	denorm := test.Denormalize(synth.NewRand(99), 1.0)
	for _, k := range []float64{1.5, 2.0, 2.5, 3.0, 3.5} {
		cfg := DefaultEDSCConfig(CHE)
		cfg.CHEK = k
		c, err := newEDSC(train, cfg, 1)
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
		t.Logf("k=%.1f: shapelets %d norm %.3f (earliness %.2f forced %.2f) denorm %.3f",
			k, len(c.Shapelets), n.Accuracy(), n.MeanEarliness(), n.ForcedFraction(), d.Accuracy())
	}
}
