package etsc

import (
	"math"
	"strings"
	"testing"

	"etsc/internal/dataset"
)

// This file is the RelClass kernel battery: the precomputed
// suffix-completion table must be indistinguishable from the original
// Monte Carlo walk (agreeEager, the fallback for tables over
// relTableMaxFloats) in everything but CPU work. The two kernels
// reassociate the suffix log-likelihood summation, so the contract is
// decisions identical and reliabilities within Monte Carlo-step tolerance
// (one flipped sample = 1/Samples), not bit-equality.

// trainRelClassEager trains cfg with the table cap lowered to zero, so the
// model runs on the Monte Carlo walk: the reference oracle.
func trainRelClassEager(t testing.TB, train *dataset.Dataset, cfg RelClassConfig) *RelClass {
	t.Helper()
	saved := relTableMaxFloats
	relTableMaxFloats = 0
	defer func() { relTableMaxFloats = saved }()
	r, err := trainRelClass(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.suf != nil {
		t.Fatal("capped training built a suffix table")
	}
	return r
}

// modeSplits returns the two datasets the kernel battery runs on.
func modeSplits(t *testing.T) map[string][2]*dataset.Dataset {
	t.Helper()
	eTrain, eTest := easySplit(t)
	gTrain, gTest := smallGunPointSplit(t)
	return map[string][2]*dataset.Dataset{
		"easy":     {eTrain, eTest},
		"gunpoint": {gTrain, gTest},
	}
}

// relClassModePair trains one classifier per kernel from the same config.
func relClassModePair(t testing.TB, train *dataset.Dataset, pooled bool) (table, eager *RelClass) {
	t.Helper()
	cfg := DefaultRelClassConfig(pooled)
	cfg.MinPrefix = 3
	tbl, err := trainRelClass(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.suf == nil {
		t.Fatal("default training did not build the suffix table")
	}
	return tbl, trainRelClassEager(t, train, cfg)
}

// relTolerance is the allowed reliability gap between the kernels: the
// estimate is quantized to 1/Samples, so a last-ulp rounding difference can
// flip at most a tied sample or two.
func relTolerance(r *RelClass) float64 { return 2.0/float64(len(r.noise)) + 1e-12 }

// TestRelClassTableEagerEquivalent sweeps every prefix length of several
// test exemplars on both datasets and both Pooled variants: decisions
// (label and readiness) identical, reliabilities within tolerance.
func TestRelClassTableEagerEquivalent(t *testing.T) {
	for name, sp := range modeSplits(t) {
		train, test := sp[0], sp[1]
		for _, pooled := range []bool{false, true} {
			tbl, eag := relClassModePair(t, train, pooled)
			for ti, in := range test.Instances {
				if ti >= 6 {
					break
				}
				for l := 1; l <= tbl.full; l++ {
					prefix := in.Series[:l]
					lt, rt := tbl.Reliability(prefix)
					le, re := eag.Reliability(prefix)
					if lt != le {
						t.Fatalf("%s pooled=%v instance %d length %d: table label %d != eager %d",
							name, pooled, ti, l, lt, le)
					}
					if math.Abs(rt-re) > relTolerance(tbl) {
						t.Fatalf("%s pooled=%v instance %d length %d: table reliability %v != eager %v",
							name, pooled, ti, l, rt, re)
					}
					dt := tbl.ClassifyPrefix(prefix)
					de := eag.ClassifyPrefix(prefix)
					if dt != de {
						t.Fatalf("%s pooled=%v instance %d length %d: table %+v != eager %+v",
							name, pooled, ti, l, dt, de)
					}
				}
			}
		}
	}
}

// TestRelClassSessionModesIdentical drives paired table/eager sessions over
// the same exemplars in several chunkings and requires the decision trace
// to match at every Extend.
func TestRelClassSessionModesIdentical(t *testing.T) {
	for name, sp := range modeSplits(t) {
		train, test := sp[0], sp[1]
		for _, pooled := range []bool{false, true} {
			tbl, eag := relClassModePair(t, train, pooled)
			for _, chunk := range []int{1, 3, 8, 1000} {
				for ti, in := range test.Instances {
					if ti >= 4 {
						break
					}
					st := tbl.NewIncrementalSession()
					se := eag.NewIncrementalSession()
					for at := 0; at < tbl.full; {
						end := at + chunk
						if end > tbl.full {
							end = tbl.full
						}
						dt := st.Extend(in.Series[at:end])
						de := se.Extend(in.Series[at:end])
						if dt != de {
							t.Fatalf("%s pooled=%v chunk=%d length %d: table %+v != eager %+v",
								name, pooled, chunk, end, dt, de)
						}
						at = end
					}
				}
			}
		}
	}
}

// TestRelClassModeSpec pins the registry plumbing: the kernel follows from
// the table size alone, so a spec trains the table whenever it fits, and
// a "mode" parameter is an unknown-parameter error, not a silent default.
func TestRelClassModeSpec(t *testing.T) {
	train, _ := easySplit(t)
	def, err := Train(MustParseSpec("relclass:tau=0.1"), train)
	if err != nil {
		t.Fatal(err)
	}
	if def.(*RelClass).suf == nil {
		t.Fatal("default spec did not build the suffix table")
	}
	for _, spec := range []string{"relclass:mode=eager", "relclass:mode=table"} {
		if _, err := Train(MustParseSpec(spec), train); err == nil || !strings.Contains(err.Error(), "unknown relclass parameter") {
			t.Errorf("%s: %v, want the unknown-parameter error", spec, err)
		}
	}
}

// TestRelClassTableMemoryFallback pins the memory guard: when the suffix
// table would exceed relTableMaxFloats, training falls back to the eager
// kernel instead of allocating it.
func TestRelClassTableMemoryFallback(t *testing.T) {
	train, test := easySplit(t)
	saved := relTableMaxFloats
	relTableMaxFloats = 16
	defer func() { relTableMaxFloats = saved }()
	cfg := DefaultRelClassConfig(false)
	r, err := trainRelClass(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.suf != nil {
		t.Fatal("capped training built the suffix table, want eager fallback")
	}
	if d := r.ClassifyPrefix(test.Instances[0].Series); d.Label == 0 && !d.Ready {
		t.Fatalf("fallback classifier returned zero decision %+v", d)
	}
}

// TestRelClassSessionEmptyBatchCached is the regression test for the
// empty-batch pathology: an Extend that contributes no points must return
// the cached decision without re-running the reliability estimate.
func TestRelClassSessionEmptyBatchCached(t *testing.T) {
	train, test := easySplit(t)
	cfg := DefaultRelClassConfig(false)
	cfg.Tau = 1e-9 // effectively never ready, so the session stays open
	r, err := trainRelClass(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := r.NewIncrementalSession().(*relClassSession)
	if d := sess.Extend(nil); d != (Decision{}) {
		t.Fatalf("empty batch before any points returned %+v, want zero decision", d)
	}
	if sess.estimates != 0 {
		t.Fatalf("empty batch before any points ran %d estimates, want 0", sess.estimates)
	}
	first := sess.Extend(test.Instances[0].Series[:7])
	if got := sess.estimates; got != 1 {
		t.Fatalf("first batch ran %d estimates, want 1", got)
	}
	for i := 0; i < 3; i++ {
		if d := sess.Extend(nil); d != first {
			t.Fatalf("empty batch %d returned %+v, want cached %+v", i, d, first)
		}
		if d := sess.Extend([]float64{}); d != first {
			t.Fatalf("empty non-nil batch %d returned %+v, want cached %+v", i, d, first)
		}
	}
	if sess.estimates != 1 {
		t.Fatalf("empty batches re-ran the estimate: %d estimates, want 1", sess.estimates)
	}
	// A real batch after the empty ones still advances normally.
	sess.Extend(test.Instances[0].Series[7:9])
	if sess.estimates != 2 || sess.seen != 9 {
		t.Fatalf("post-empty batch: %d estimates seen=%d, want 2 and 9", sess.estimates, sess.seen)
	}
}

// TestRelClassMinPrefixBeyondFull pins the reconciled readiness gate: with
// MinPrefix configured past the model horizon, both the pure path and the
// session clamp it to FullLength and commit at full — previously the pure
// path required raw len(prefix) >= MinPrefix, which a session could never
// match.
func TestRelClassMinPrefixBeyondFull(t *testing.T) {
	train, test := easySplit(t)
	cfg := DefaultRelClassConfig(false)
	cfg.MinPrefix = train.SeriesLen() + 100
	r, err := trainRelClass(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MinPrefix != r.full {
		t.Fatalf("MinPrefix %d not clamped to full length %d", r.MinPrefix, r.full)
	}
	series := test.Instances[0].Series
	if d := r.ClassifyPrefix(series[:r.full-1]); d.Ready {
		t.Fatalf("ready before MinPrefix: %+v", d)
	}
	pure := r.ClassifyPrefix(series)
	if !pure.Ready {
		t.Fatalf("pure path not ready at full length: %+v", pure)
	}
	// A prefix longer than the model horizon behaves like the clamped one.
	long := append(append([]float64(nil), series...), 1, 2, 3)
	if d := r.ClassifyPrefix(long); d != pure {
		t.Fatalf("over-length prefix decided %+v, pure %+v", d, pure)
	}
	sess := r.NewIncrementalSession()
	var last Decision
	for at := 0; at < len(long); at += 5 {
		end := at + 5
		if end > len(long) {
			end = len(long)
		}
		last = sess.Extend(long[at:end])
	}
	if last != pure {
		t.Fatalf("session decided %+v, pure path %+v", last, pure)
	}
}

// FuzzRelClassModes feeds one exemplar to paired table/eager sessions (and
// the pure paths) under fuzz-chosen prefix lengths, chunkings, and Pooled
// variants: decisions must match exactly, reliabilities within tolerance.
func FuzzRelClassModes(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), uint8(3))
	f.Add(uint8(1), uint8(1), uint8(5), uint8(1))
	f.Add(uint8(0), uint8(1), uint8(2), uint8(7))
	f.Add(uint8(1), uint8(0), uint8(9), uint8(2))

	eTrain, eTest := easySplit(f)
	gTrain, gTest := smallGunPointSplit(f)
	type pair struct {
		table, eager *RelClass
		test         *dataset.Dataset
	}
	var pairs []pair
	for _, sp := range [][2]*dataset.Dataset{{eTrain, eTest}, {gTrain, gTest}} {
		for _, pooled := range []bool{false, true} {
			tbl, eag := relClassModePair(f, sp[0], pooled)
			pairs = append(pairs, pair{tbl, eag, sp[1]})
		}
	}

	f.Fuzz(func(t *testing.T, which, instance, chunkA, prefixB uint8) {
		p := pairs[int(which)%len(pairs)]
		in := p.test.Instances[int(instance)%p.test.Len()]
		full := p.table.full

		// Pure path at a fuzz-chosen prefix length.
		l := int(prefixB)%full + 1
		lt, rt := p.table.Reliability(in.Series[:l])
		le, re := p.eager.Reliability(in.Series[:l])
		if lt != le {
			t.Fatalf("length %d: table label %d != eager %d", l, lt, le)
		}
		if math.Abs(rt-re) > relTolerance(p.table) {
			t.Fatalf("length %d: table reliability %v != eager %v", l, rt, re)
		}

		// Paired sessions under a fuzz-chosen chunk pattern.
		st := p.table.NewIncrementalSession()
		se := p.eager.NewIncrementalSession()
		ca := int(chunkA)%11 + 1
		for at, step := 0, 0; at < full; step++ {
			chunk := ca
			if step%2 == 1 {
				chunk = 1
			}
			end := at + chunk
			if end > full {
				end = full
			}
			dt := st.Extend(in.Series[at:end])
			de := se.Extend(in.Series[at:end])
			if dt != de {
				t.Fatalf("length %d: table session %+v != eager session %+v", end, dt, de)
			}
			at = end
		}
	})
}
