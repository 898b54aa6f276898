package etsc

import (
	"math"
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/synth"
	"etsc/internal/ts"
)

// replayPure is the reference evaluation loop: the pure ClassifyPrefix path
// replayed over growing prefixes, with no session state at all. RunOne must
// produce exactly these decisions through the incremental engine.
func replayPure(c EarlyClassifier, series []float64, step int) (label, length int, forced bool) {
	if step < 1 {
		step = 1
	}
	full := c.FullLength()
	if full > len(series) {
		full = len(series)
	}
	for l := step; l <= full; l += step {
		if d := c.ClassifyPrefix(series[:l]); d.Ready {
			return d.Label, l, false
		}
	}
	return c.ForcedLabel(series[:full]), full, true
}

// smallGunPointSplit is gunPointSplit at engine-test size: enough structure
// to exercise forced decisions and non-trivial commit points, small enough
// to replay every classifier at several step sizes.
func smallGunPointSplit(t testing.TB) (train, test *dataset.Dataset) {
	t.Helper()
	cfg := synth.DefaultGunPointConfig()
	cfg.PerClassSize = 20
	d, err := synth.GunPoint(synth.NewRand(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err = d.Split(synth.NewRand(7), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

// engineClassifiers is allClassifiers plus the models without native
// incremental sessions (ECDIRE, CostAware), which must flow through the
// engine's buffering fallback with identical behaviour.
func engineClassifiers(t testing.TB, train *dataset.Dataset) []EarlyClassifier {
	t.Helper()
	cs := allClassifiers(t, train)
	ecdire, err := trainECDIRE(serialContext(t, train), DefaultECDIREConfig())
	if err != nil {
		t.Fatal(err)
	}
	cost, err := trainCostAware(serialContext(t, train), DefaultCostAwareConfig())
	if err != nil {
		t.Fatal(err)
	}
	return append(cs, ecdire, cost)
}

// TestIncrementalSessionsMatchPurePath is the engine's core equivalence
// property: for every classifier, every test exemplar, and several step
// chunkings, the incremental session (driven by RunOne through
// OpenSession) commits to the same label at the same decision point as the
// pure ClassifyPrefix replay, on both an easy and a GunPoint-style
// dataset.
func TestIncrementalSessionsMatchPurePath(t *testing.T) {
	type split struct {
		name        string
		train, test *dataset.Dataset
	}
	eTrain, eTest := easySplit(t)
	gTrain, gTest := smallGunPointSplit(t)
	for _, sp := range []split{{"easy", eTrain, eTest}, {"gunpoint", gTrain, gTest}} {
		for _, c := range engineClassifiers(t, sp.train) {
			for _, step := range []int{1, 4, 7} {
				for i, in := range sp.test.Instances {
					pl, pn, pf := replayPure(c, in.Series, step)
					il, inn, iff := RunOne(c, in.Series, step)
					if pl != il || pn != inn || pf != iff {
						t.Fatalf("%s/%s step=%d instance %d: pure (label=%d len=%d forced=%v) != incremental (label=%d len=%d forced=%v)",
							sp.name, c.Name(), step, i, pl, pn, pf, il, inn, iff)
					}
				}
			}
		}
	}
}

// TestIncrementalExtendChunkingEquivalence feeds exemplars to fresh
// sessions in several chunk sizes — one point at a time, misaligned odd
// chunks, one huge chunk — and asserts that at every checkpoint the session
// decision matches the pure ClassifyPrefix of the same prefix. (Different
// chunkings check different prefix lengths, so they may legitimately commit
// at different points — exactly as the pure path does with a different
// step; what must never differ is the decision at any given length.)
func TestIncrementalExtendChunkingEquivalence(t *testing.T) {
	train, test := easySplit(t)
	for _, c := range engineClassifiers(t, train) {
		for _, in := range test.Instances {
			for _, chunk := range []int{1, 2, 7, 60} {
				sess := OpenSession(c)
				full := c.FullLength()
				for at := 0; at < full; {
					end := at + chunk
					if end > full {
						end = full
					}
					got := sess.Extend(in.Series[at:end])
					want := c.ClassifyPrefix(in.Series[:end])
					if got.Ready != want.Ready || (want.Ready && got.Label != want.Label) {
						t.Fatalf("%s chunk=%d length %d: session %+v != pure %+v",
							c.Name(), chunk, end, got, want)
					}
					if got.Ready {
						break
					}
					at = end
				}
			}
		}
	}
}

// TestBankSessionNonFiniteChunking feeds the bank-backed sessions (ECTS,
// ProbThreshold) hostile inputs: streams may legally carry NaN and ±Inf
// samples (the monitor/hub fuzz contract), which drive distance
// accumulators to +Inf or NaN. At every length up to the point-at-a-time
// session's commit, a fresh session fed the whole prefix as one chunk must
// return the same decision and hold bit-identical accumulators — the
// bank's strict left-to-right per-reference fold makes chunking invisible,
// before, at, and after the poison point.
func TestBankSessionNonFiniteChunking(t *testing.T) {
	train, test := smallGunPointSplit(t)
	ects, err := trainECTS(serialContext(t, train), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := trainProbThreshold(train, 0.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	bankOf := func(s IncrementalSession) *ts.PrefixDistBank {
		switch s := s.(type) {
		case *ectsSession:
			return s.bank
		case *probThresholdSession:
			return s.bank
		}
		t.Fatalf("%T is not a bank-backed session", s)
		return nil
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, c := range []EarlyClassifier{ects, prob} {
		for _, special := range specials {
			for _, at := range []int{0, 9, 40} {
				series := append([]float64(nil), test.Instances[0].Series...)
				series[at] = special
				pointwise := OpenSession(c)
				for l := 1; l <= c.FullLength(); l++ {
					dp := pointwise.Extend(series[l-1 : l])
					chunked := OpenSession(c)
					dc := chunked.Extend(series[:l])
					if dp != dc {
						t.Fatalf("%s special=%v at=%d length %d: point-at-a-time %+v != one chunk %+v",
							c.Name(), special, at, l, dp, dc)
					}
					bp, bc := bankOf(pointwise).D2(), bankOf(chunked).D2()
					for i := range bp {
						if math.Float64bits(bp[i]) != math.Float64bits(bc[i]) {
							t.Fatalf("%s special=%v at=%d length %d: reference %d d2 %v != %v",
								c.Name(), special, at, l, i, bp[i], bc[i])
						}
					}
					if dp.Ready {
						break
					}
				}
			}
		}
	}
}

// TestSessionLatchesAfterReady asserts the latch contract: once Ready, a
// session keeps returning the same decision no matter what arrives next.
func TestSessionLatchesAfterReady(t *testing.T) {
	train, test := easySplit(t)
	for _, c := range engineClassifiers(t, train) {
		for _, in := range test.Instances {
			sess := OpenSession(c)
			var first Decision
			for l := 0; l < c.FullLength(); l++ {
				d := sess.Extend(in.Series[l : l+1])
				if d.Ready {
					first = d
					break
				}
			}
			if !first.Ready {
				continue
			}
			again := sess.Extend(nil)
			if again != first {
				t.Fatalf("%s: latched decision changed from %+v to %+v", c.Name(), first, again)
			}
		}
	}
}

// TestEvaluateParallelMatchesSerial asserts the parallel evaluation fan-out
// produces the exact outcome sequence of the serial path for every worker
// count.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	train, test := easySplit(t)
	for _, c := range engineClassifiers(t, train) {
		want, err := Evaluate(c, test, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 3, 16} {
			got, err := EvaluateParallel(c, test, 4, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got.Full != want.Full || len(got.Outcomes) != len(want.Outcomes) {
				t.Fatalf("%s workers=%d: summary shape mismatch", c.Name(), workers)
			}
			for i := range want.Outcomes {
				if got.Outcomes[i] != want.Outcomes[i] {
					t.Fatalf("%s workers=%d outcome %d: %+v != %+v",
						c.Name(), workers, i, got.Outcomes[i], want.Outcomes[i])
				}
			}
		}
	}
}

// TestEvaluateParallelValidation mirrors Evaluate's input checks.
func TestEvaluateParallelValidation(t *testing.T) {
	train, _ := easySplit(t)
	c, err := trainECTS(serialContext(t, train), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateParallel(c, nil, 2, 0); err == nil {
		t.Fatal("nil test set accepted")
	}
	short, err := train.Truncate(10, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateParallel(c, short, 2, 0); err == nil {
		t.Fatal("short test set accepted")
	}
}

// TestOpenSessionPicksNativeIncremental pins the engine's dispatch: native
// incremental sessions for the ported classifiers, adapters otherwise.
func TestOpenSessionPicksNativeIncremental(t *testing.T) {
	train, _ := easySplit(t)
	for _, c := range allClassifiers(t, train) {
		if _, ok := c.(IncrementalClassifier); !ok {
			t.Errorf("%s: expected a native incremental session", c.Name())
		}
	}
	ecdire, err := trainECDIRE(serialContext(t, train), DefaultECDIREConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := OpenSession(ecdire).(*pureAdapter); !ok {
		t.Errorf("ECDIRE should fall back to the pure adapter")
	}
}
