package etsc

import (
	"testing"
)

// allocCaseName names a classifier's TestSessionExtendAllocFree subtest.
// The bank-backed sessions (ECTS, ProbThreshold) keep the /eager suffix
// they carried while a second engine existed: the eager bank is the one
// engine they run on.
func allocCaseName(c EarlyClassifier) string {
	switch c.(type) {
	case *ECTS, *ProbThreshold:
		return c.Name() + "/eager"
	}
	return c.Name()
}

// TestSessionExtendAllocFree is the steady-state zero-allocation
// regression battery: for every native session (all six classifiers), a
// session whose scratch was allocated at open time must run point-at-a-time
// Extends — before, across, and after its decision point — without a
// single heap allocation.
func TestSessionExtendAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	train, test := smallGunPointSplit(t)
	// A long point feed: the exemplar, then junk the truncation contract
	// drops — overfed steady state must be allocation-free too.
	series := test.Instances[0].Series
	const runs = 200
	feed := make([]float64, runs+2)
	for i := range feed {
		feed[i] = series[i%len(series)]
	}
	for _, c := range allClassifiers(t, train) {
		t.Run(allocCaseName(c), func(t *testing.T) {
			sess := OpenSession(c)
			i := 0
			allocs := testing.AllocsPerRun(runs, func() {
				sess.Extend(feed[i : i+1])
				i++
			})
			if allocs != 0 {
				t.Fatalf("%s: Extend allocated %v per step, want 0", c.Name(), allocs)
			}
		})
	}
}

// TestRelClassPureAllocFree extends the allocation battery to the pure
// path: ClassifyPrefix → Reliability runs off pooled scratch, so the LOO
// and fold sweeps in classify stop churning a relScratch per call. Covered
// for both reliability kernels (the eager walk reuses the same scratch) and
// both Pooled variants.
func TestRelClassPureAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	train, test := smallGunPointSplit(t)
	series := test.Instances[0].Series
	for _, pooled := range []bool{false, true} {
		cfg := DefaultRelClassConfig(pooled)
		table, err := trainRelClass(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*RelClass{table, trainRelClassEager(t, train, cfg)} {
			// Warm the pool, then measure prefixes of cycling lengths.
			r.ClassifyPrefix(series[:10])
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				r.ClassifyPrefix(series[:i%len(series)+1])
				i++
			})
			if allocs != 0 {
				t.Fatalf("table=%v pooled=%v: ClassifyPrefix allocated %v per call, want 0", r.suf != nil, pooled, allocs)
			}
		}
	}
}

// TestSessionTruncationAtFull pins the session truncation contract the
// IncrementalSession.Extend doc states, for every native session: a batch spanning the full-length boundary is truncated to
// the remaining room, and at exactly room == 0 whole batches are dropped —
// every overfed Extend keeps returning the decision the exactly-fed session
// ended on, with no error, panic, or state change.
func TestSessionTruncationAtFull(t *testing.T) {
	train, test := smallGunPointSplit(t)
	junk := []float64{1e9, -1e9, 3.14, 0, 42}
	for _, c := range allClassifiers(t, train) {
		full := c.FullLength()
		for ti, in := range test.Instances {
			if ti >= 4 {
				break
			}
			// Reference: exactly full points, then read the settled state.
			ref := OpenSession(c)
			var want Decision
			for l := 0; l < full; l++ {
				want = ref.Extend(in.Series[l : l+1])
			}
			if again := ref.Extend(nil); again != want {
				t.Fatalf("%s instance %d: empty Extend at full changed decision %+v -> %+v",
					c.Name(), ti, want, again)
			}

			// Overfed: a batch spanning the boundary (the last 3 real
			// points plus junk) must truncate to room and land on the
			// same decision.
			over := OpenSession(c)
			for l := 0; l < full-3; l++ {
				over.Extend(in.Series[l : l+1])
			}
			spanning := append(append([]float64(nil), in.Series[full-3:full]...), junk...)
			if got := over.Extend(spanning); got != want {
				t.Fatalf("%s instance %d: boundary-spanning Extend %+v != exactly-fed %+v",
					c.Name(), ti, got, want)
			}
			// room == 0: whole batches drop; the decision stays put.
			for k := 0; k < 3; k++ {
				if got := over.Extend(junk); got != want {
					t.Fatalf("%s instance %d: overfed Extend #%d %+v != settled %+v",
						c.Name(), ti, k, got, want)
				}
			}
		}
	}
}
