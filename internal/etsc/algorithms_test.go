package etsc

import (
	"math"
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/ts"
)

func TestECTSMPLProperties(t *testing.T) {
	train, _ := easySplit(t)
	e, err := trainECTS(serialContext(t, train), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	L := train.SeriesLen()
	early := 0
	for i := 0; i < train.Len(); i++ {
		mpl := e.MPL(i)
		if mpl < 1 || mpl > L+1 {
			t.Errorf("MPL(%d) = %d out of range", i, mpl)
		}
		if mpl < L {
			early++
		}
	}
	if early == 0 {
		t.Error("no instance can trigger early; MPL learning failed on a separable problem")
	}
}

func TestECTSRelaxedMPLNotLater(t *testing.T) {
	// The relaxed stability condition is weaker for instances with
	// non-empty RNN sets, so relaxed MPLs can only be <= strict MPLs
	// for those instances.
	train, _ := easySplit(t)
	strict, err := trainECTS(serialContext(t, train), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := trainECTS(serialContext(t, train), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < train.Len(); i++ {
		if relaxed.MPL(i) > strict.MPL(i) {
			t.Errorf("instance %d: relaxed MPL %d > strict MPL %d", i, relaxed.MPL(i), strict.MPL(i))
		}
	}
}

func TestECTSMinSupportRaisesMPL(t *testing.T) {
	train, test := easySplit(t)
	loose, err := trainECTS(serialContext(t, train), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := trainECTS(serialContext(t, train), false, 3)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := Evaluate(loose, test, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Evaluate(tight, test, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanEarliness() < sl.MeanEarliness()-1e-9 {
		t.Errorf("higher support should not make decisions earlier: %.3f vs %.3f",
			st.MeanEarliness(), sl.MeanEarliness())
	}
}

func TestECTSErrors(t *testing.T) {
	if _, err := Train(MustParseSpec("ects"), nil); err == nil {
		t.Error("nil train should error")
	}
	one, err := dataset.New("one", []dataset.Instance{{Label: 1, Series: ts.Series{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainECTS(serialContext(t, one), false, 0); err == nil {
		t.Error("single instance should error")
	}
}

func TestEDSCShapeletsComeFromTrainingData(t *testing.T) {
	train, _ := easySplit(t)
	cfg := DefaultEDSCConfig(CHE)
	cfg.MinLen = 10
	cfg.MaxLen = 30
	e, err := newEDSC(train, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Shapelets) == 0 {
		t.Fatal("no shapelets selected")
	}
	for _, sh := range e.Shapelets {
		src := train.Instances[sh.Source]
		if sh.Label != src.Label {
			t.Errorf("shapelet label %d != source label %d", sh.Label, src.Label)
		}
		for i, v := range sh.Data {
			if src.Series[sh.Offset+i] != v {
				t.Errorf("shapelet data does not match source subsequence at %d", i)
				break
			}
		}
		if sh.Threshold <= 0 {
			t.Errorf("threshold %v must be positive", sh.Threshold)
		}
		if sh.Precision < 0 || sh.Precision > 1 {
			t.Errorf("precision %v out of range", sh.Precision)
		}
	}
}

func TestEDSCConfigValidation(t *testing.T) {
	train, _ := easySplit(t)
	bad := DefaultEDSCConfig(CHE)
	bad.MinLen = 200 // longer than the series
	if _, err := newEDSC(train, bad, 1); err == nil {
		t.Error("MinLen > series length should error")
	}
	bad = DefaultEDSCConfig(CHE)
	bad.MaxLen = bad.MinLen - 1
	if _, err := newEDSC(train, bad, 1); err == nil {
		t.Error("MaxLen < MinLen should error")
	}
	if _, err := newEDSC(nil, DefaultEDSCConfig(CHE), 1); err == nil {
		t.Error("nil train should error")
	}
}

func TestThresholdMethodString(t *testing.T) {
	if CHE.String() != "CHE" || KDE.String() != "KDE" {
		t.Error("method names")
	}
	if ThresholdMethod(9).String() == "" {
		t.Error("unknown method should still render")
	}
}

func TestBestMatchRaw(t *testing.T) {
	series := []float64{0, 0, 1, 2, 3, 0, 0}
	query := []float64{1, 2, 3}
	d, end := bestMatchRaw(query, series)
	if d != 0 {
		t.Errorf("distance %v, want 0", d)
	}
	if end != 5 {
		t.Errorf("end %d, want 5", end)
	}
}

func TestRelClassReliabilityIncreasesToOne(t *testing.T) {
	train, test := easySplit(t)
	rc, err := trainRelClass(train, DefaultRelClassConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	s := test.Instances[0].Series
	_, relFull := rc.Reliability(s)
	if relFull != 1 {
		t.Errorf("full-length reliability %v, want 1", relFull)
	}
	// Reliability at a midpoint is a valid probability.
	_, relMid := rc.Reliability(s[:len(s)/2])
	if relMid < 0 || relMid > 1 {
		t.Errorf("reliability %v out of [0,1]", relMid)
	}
}

func TestRelClassPosteriorNormalized(t *testing.T) {
	train, test := easySplit(t)
	rc, err := trainRelClass(train, DefaultRelClassConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	post := rc.PosteriorPrefix(test.Instances[0].Series[:20])
	sum := 0.0
	for _, p := range post {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("posterior sums to %v", sum)
	}
}

func TestRelClassConfigValidation(t *testing.T) {
	train, _ := easySplit(t)
	cfg := DefaultRelClassConfig(false)
	cfg.Tau = 0
	if _, err := trainRelClass(train, cfg); err == nil {
		t.Error("tau=0 should error")
	}
	cfg = DefaultRelClassConfig(false)
	cfg.Tau = 1
	if _, err := trainRelClass(train, cfg); err == nil {
		t.Error("tau=1 should error")
	}
	if _, err := trainRelClass(nil, DefaultRelClassConfig(false)); err == nil {
		t.Error("nil train should error")
	}
}

func TestRelClassDeterministic(t *testing.T) {
	train, test := easySplit(t)
	a, err := trainRelClass(train, DefaultRelClassConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := trainRelClass(train, DefaultRelClassConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	s := test.Instances[2].Series
	for l := 10; l <= len(s); l += 13 {
		_, ra := a.Reliability(s[:l])
		_, rb := b.Reliability(s[:l])
		if ra != rb {
			t.Fatalf("reliability differs at l=%d: %v vs %v (frozen MC draws should be identical)", l, ra, rb)
		}
	}
}

func TestTEASERSnapshotsCoverLengths(t *testing.T) {
	train, _ := easySplit(t)
	te, err := trainTEASER(serialContext(t, train), DefaultTEASERConfig())
	if err != nil {
		t.Fatal(err)
	}
	if te.FullLength() != train.SeriesLen() {
		t.Errorf("full length %d", te.FullLength())
	}
	// Short prefixes below the first snapshot defer.
	d := te.ClassifyPrefix(train.Instances[0].Series[:2])
	if d.Ready {
		t.Error("prefix below first snapshot should not commit")
	}
}

func TestTEASERConfigClamps(t *testing.T) {
	train, _ := easySplit(t)
	cfg := TEASERConfig{Snapshots: 0, V: 0, ZNormPrefix: true, GateSigma: -1}
	te, err := trainTEASER(serialContext(t, train), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if te.Snapshots < 2 || te.V < 1 {
		t.Errorf("config not clamped: %+v", te)
	}
}

// TestSnapshotTrainersRejectShortSeries pins the snapshot grid's one
// check: series under 3 points leave ECDIRE's, CostAware's and TEASER's
// grid empty, so training fails instead of returning a model that panics
// (ECDIRE's fit and TEASER's ForcedLabel indexed the empty grid at -1).
func TestSnapshotTrainersRejectShortSeries(t *testing.T) {
	short := &dataset.Dataset{Name: "short", Instances: []dataset.Instance{
		{Label: 0, Series: ts.Series{0, 1}},
		{Label: 1, Series: ts.Series{1, 0}},
		{Label: 0, Series: ts.Series{0, 2}},
	}}
	for _, tc := range []struct{ spec, algo string }{
		{"ecdire", "ECDIRE"}, {"costaware", "CostAware"}, {"teaser", "TEASER"}, {"teaser:znorm=false", "TEASER"},
	} {
		c, err := Train(MustParseSpec(tc.spec), short)
		if err == nil {
			t.Errorf("%s trained %s on 2-point series", tc.spec, c.Name())
			continue
		}
		if want := "etsc: " + tc.algo + " needs series of at least 3 points, got 2"; err.Error() != want {
			t.Errorf("%s: error %q, want %q", tc.spec, err, want)
		}
	}
}

func TestProbThresholdValidation(t *testing.T) {
	train, _ := easySplit(t)
	if _, err := trainProbThreshold(train, 0, 1); err == nil {
		t.Error("threshold 0 should error")
	}
	if _, err := trainProbThreshold(train, 1, 1); err == nil {
		t.Error("threshold 1 should error")
	}
	if _, err := trainProbThreshold(nil, 0.5, 1); err == nil {
		t.Error("nil train should error")
	}
}

func TestFixedPrefixBehaviour(t *testing.T) {
	train, test := easySplit(t)
	f, err := trainFixedPrefix(serialContext(t, train), 15, true)
	if err != nil {
		t.Fatal(err)
	}
	s := test.Instances[0].Series
	if d := f.ClassifyPrefix(s[:10]); d.Ready {
		t.Error("should not commit before the fixed length")
	}
	d := f.ClassifyPrefix(s[:15])
	if !d.Ready {
		t.Error("must commit exactly at the fixed length")
	}
	if got := f.ForcedLabel(s); got != d.Label {
		t.Errorf("forced label %d != decision label %d", got, d.Label)
	}
	if _, err := trainFixedPrefix(serialContext(t, train), 0, true); err == nil {
		t.Error("at=0 should error")
	}
	if _, err := trainFixedPrefix(serialContext(t, train), 1000, true); err == nil {
		t.Error("at beyond length should error")
	}
}

func TestNamesAreDistinct(t *testing.T) {
	train, _ := easySplit(t)
	seen := map[string]bool{}
	for _, c := range allClassifiers(t, train) {
		if seen[c.Name()] {
			t.Errorf("duplicate name %q", c.Name())
		}
		seen[c.Name()] = true
	}
}
