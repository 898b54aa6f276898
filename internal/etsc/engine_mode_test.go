package etsc

import (
	"math"
	"runtime"
	"testing"

	"etsc/internal/dataset"
)

// This file is the pruned-vs-eager half of the engine battery: the lazy
// NN-frontier sessions must be indistinguishable from the eager-bank
// sessions in everything but CPU work — same decisions at every length,
// same evaluation summaries for every worker count, on fixed seeds and
// under fuzzed chunkings. (The frontier's Min itself is pinned
// byte-identical to the eager scan in internal/ts; these tests pin the
// classifier layer built on it.)

// modeSplits returns the two datasets the battery runs on.
func modeSplits(t *testing.T) map[string][2]*dataset.Dataset {
	t.Helper()
	eTrain, eTest := easySplit(t)
	gTrain, gTest := smallGunPointSplit(t)
	return map[string][2]*dataset.Dataset{
		"easy":     {eTrain, eTest},
		"gunpoint": {gTrain, gTest},
	}
}

// TestPrunedEagerEvaluateIdentical evaluates every classifier under both
// engine modes at workers {1, 4, GOMAXPROCS} and requires outcome-for-
// outcome identical summaries.
func TestPrunedEagerEvaluateIdentical(t *testing.T) {
	for name, sp := range modeSplits(t) {
		train, test := sp[0], sp[1]
		for _, c := range engineClassifiers(t, train) {
			want, err := EvaluateParallelMode(c, test, 4, 1, Eager)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				got, err := EvaluateParallelMode(c, test, 4, workers, Pruned)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Outcomes) != len(want.Outcomes) {
					t.Fatalf("%s/%s workers=%d: outcome count %d != %d",
						name, c.Name(), workers, len(got.Outcomes), len(want.Outcomes))
				}
				for i := range want.Outcomes {
					if got.Outcomes[i] != want.Outcomes[i] {
						t.Fatalf("%s/%s workers=%d outcome %d: pruned %+v != eager %+v",
							name, c.Name(), workers, i, got.Outcomes[i], want.Outcomes[i])
					}
				}
			}
		}
	}
}

// TestPrunedEagerStepwiseIdentical drives paired sessions over the same
// exemplars in several chunkings and requires the full decision trace —
// not just the commit point — to match at every Extend.
func TestPrunedEagerStepwiseIdentical(t *testing.T) {
	for name, sp := range modeSplits(t) {
		train, test := sp[0], sp[1]
		for _, c := range engineClassifiers(t, train) {
			for _, chunk := range []int{1, 3, 8, 1000} {
				for ti, in := range test.Instances {
					if ti >= 6 {
						break
					}
					pruned := OpenSessionMode(c, Pruned)
					eager := OpenSessionMode(c, Eager)
					full := c.FullLength()
					for at := 0; at < full; {
						end := at + chunk
						if end > full {
							end = full
						}
						dp := pruned.Extend(in.Series[at:end])
						de := eager.Extend(in.Series[at:end])
						if dp != de {
							t.Fatalf("%s/%s chunk=%d length %d: pruned %+v != eager %+v",
								name, c.Name(), chunk, end, dp, de)
						}
						at = end
					}
				}
			}
		}
	}
}

// TestPrunedEagerNonFiniteIdentical pins the engine-mode contract on
// hostile inputs: streams may legally carry NaN and ±Inf samples (the
// monitor/hub fuzz contract), which drive distance accumulators to +Inf or
// NaN. The bank-backed sessions must keep returning the same decisions
// under both engines, before, at, and after the poison point.
func TestPrunedEagerNonFiniteIdentical(t *testing.T) {
	train, test := smallGunPointSplit(t)
	ects, err := trainECTS(train, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := trainProbThreshold(train, 0.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, c := range []EarlyClassifier{ects, prob} {
		for _, special := range specials {
			for _, at := range []int{0, 9, 40} {
				series := append([]float64(nil), test.Instances[0].Series...)
				series[at] = special
				pruned := OpenSessionMode(c, Pruned)
				eager := OpenSessionMode(c, Eager)
				for l := 0; l < c.FullLength(); l++ {
					dp := pruned.Extend(series[l : l+1])
					de := eager.Extend(series[l : l+1])
					if dp != de {
						t.Fatalf("%s special=%v at=%d length %d: pruned %+v != eager %+v",
							c.Name(), special, at, l+1, dp, de)
					}
				}
			}
		}
	}
}

// FuzzPrunedEagerSessions feeds one exemplar to paired pruned/eager
// sessions under a fuzz-chosen chunk pattern and classifier, asserting the
// decision traces agree at every step. The corpus seeds cover both
// bank-backed classifiers on both datasets.
func FuzzPrunedEagerSessions(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), uint8(3))
	f.Add(uint8(1), uint8(1), uint8(5), uint8(1))
	f.Add(uint8(0), uint8(1), uint8(2), uint8(7))
	f.Add(uint8(1), uint8(0), uint8(9), uint8(2))

	eTrain, eTest := easySplitF(f)
	gTrain, gTest := gunPointSplitF(f)
	ectsE, err := trainECTS(eTrain, false, 0)
	if err != nil {
		f.Fatal(err)
	}
	probE, err := trainProbThreshold(eTrain, 0.8, 5)
	if err != nil {
		f.Fatal(err)
	}
	ectsG, err := trainECTS(gTrain, false, 0)
	if err != nil {
		f.Fatal(err)
	}
	probG, err := trainProbThreshold(gTrain, 0.8, 5)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, which, dset, instance, chunkA uint8) {
		var c EarlyClassifier
		var test *dataset.Dataset
		switch {
		case dset%2 == 0 && which%2 == 0:
			c, test = ectsE, eTest
		case dset%2 == 0:
			c, test = probE, eTest
		case which%2 == 0:
			c, test = ectsG, gTest
		default:
			c, test = probG, gTest
		}
		in := test.Instances[int(instance)%test.Len()]
		ca := int(chunkA)%11 + 1
		pruned := OpenSessionMode(c, Pruned)
		eager := OpenSessionMode(c, Eager)
		full := c.FullLength()
		for at, step := 0, 0; at < full; step++ {
			chunk := ca
			if step%2 == 1 {
				chunk = 1
			}
			end := at + chunk
			if end > full {
				end = full
			}
			dp := pruned.Extend(in.Series[at:end])
			de := eager.Extend(in.Series[at:end])
			if dp != de {
				t.Fatalf("%s length %d: pruned %+v != eager %+v", c.Name(), end, dp, de)
			}
			at = end
		}
	})
}

// easySplitF and gunPointSplitF adapt the testing.TB split helpers to fuzz
// setup (split construction must happen outside f.Fuzz).
func easySplitF(f *testing.F) (train, test *dataset.Dataset) { return easySplit(f) }

func gunPointSplitF(f *testing.F) (train, test *dataset.Dataset) { return smallGunPointSplit(f) }
