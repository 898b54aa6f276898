package etsc

import "testing"

// This file guards the ProbThreshold frontier crossover (DESIGN.md
// §Layer 11): on small reference sets the grouped frontier costs more than
// the blocked eager bank — every class minimum resolves every step, so
// pruning can't pay for the frontier's bookkeeping — and the pruned engine
// must fall back to the eager bank below probThresholdLazyMin. The frontier
// path itself stays covered by forcing the floor to zero.

// TestProbThresholdFrontierCrossover pins the sizing decision both ways:
// under the default floor a small bank's "pruned" session rides the eager
// bank (the BENCH_eval regression guard), and with the floor forced to
// zero it builds the grouped frontier.
func TestProbThresholdFrontierCrossover(t *testing.T) {
	train, _ := smallGunPointSplit(t)
	p, err := trainProbThreshold(train, 0.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.refs) >= probThresholdLazyMin {
		t.Fatalf("test premise broken: %d refs >= floor %d", len(p.refs), probThresholdLazyMin)
	}
	s := p.NewIncrementalSession().(*probThresholdSession)
	if s.lazy != nil || s.bank == nil {
		t.Fatal("small-bank pruned session built the grouped frontier, want eager bank fallback")
	}
	if e := p.newIncrementalSessionMode(Eager).(*probThresholdSession); e.bank == nil {
		t.Fatal("eager session has no bank")
	}

	saved := probThresholdLazyMin
	probThresholdLazyMin = 0
	defer func() { probThresholdLazyMin = saved }()
	forced := p.NewIncrementalSession().(*probThresholdSession)
	if forced.lazy == nil || forced.bank != nil {
		t.Fatal("zero floor did not build the grouped frontier")
	}
}

// TestProbThresholdFrontierStillPinned reruns the stepwise pruned-vs-eager
// comparison with the floor forced to zero, so the grouped-frontier session
// path keeps real battery coverage now that small banks default to the
// eager fallback.
func TestProbThresholdFrontierStillPinned(t *testing.T) {
	saved := probThresholdLazyMin
	probThresholdLazyMin = 0
	defer func() { probThresholdLazyMin = saved }()
	for name, sp := range modeSplits(t) {
		train, test := sp[0], sp[1]
		p, err := trainProbThreshold(train, 0.8, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 3, 8} {
			for ti, in := range test.Instances {
				if ti >= 6 {
					break
				}
				pruned := p.newIncrementalSessionMode(Pruned).(*probThresholdSession)
				if pruned.lazy == nil {
					t.Fatal("forced floor did not select the frontier")
				}
				eager := p.newIncrementalSessionMode(Eager)
				for at := 0; at < p.full; {
					end := at + chunk
					if end > p.full {
						end = p.full
					}
					dp := pruned.Extend(in.Series[at:end])
					de := eager.Extend(in.Series[at:end])
					if dp != de {
						t.Fatalf("%s chunk=%d length %d: frontier %+v != eager %+v", name, chunk, end, dp, de)
					}
					at = end
				}
			}
		}
	}
}
