package stream

import (
	"math"
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/etsc"
	"etsc/internal/synth"
	"etsc/internal/ts"
)

func TestMatchScoring(t *testing.T) {
	truth := []GroundTruth{
		{Label: 1, Start: 100, End: 150},
		{Label: 2, Start: 300, End: 350},
		{Label: 1, Start: 500, End: 550},
	}
	dets := []Detection{
		{Start: 95, DecisionAt: 120, Label: 1},  // TP on event 1
		{Start: 140, DecisionAt: 160, Label: 1}, // duplicate near event 1 (within tolerance): not FP
		{Start: 300, DecisionAt: 320, Label: 1}, // wrong label inside event 2: FP
		{Start: 700, DecisionAt: 720, Label: 2}, // nowhere near anything: FP
	}
	tally := Match(dets, truth, 20)
	if tally.TP != 1 {
		t.Errorf("TP = %d, want 1", tally.TP)
	}
	if tally.FP != 2 {
		t.Errorf("FP = %d, want 2", tally.FP)
	}
	if tally.FN != 2 {
		t.Errorf("FN = %d, want 2 (events 2 and 3 unclaimed)", tally.FN)
	}
	if len(tally.LeadTimes) != 1 || tally.LeadTimes[0] != 30 {
		t.Errorf("lead times %v, want [30]", tally.LeadTimes)
	}
}

func TestMatchEachEventClaimedOnce(t *testing.T) {
	truth := []GroundTruth{{Label: 1, Start: 0, End: 100}}
	dets := []Detection{
		{DecisionAt: 10, Label: 1},
		{DecisionAt: 20, Label: 1},
		{DecisionAt: 30, Label: 1},
	}
	tally := Match(dets, truth, 0)
	if tally.TP != 1 || tally.FP != 0 {
		t.Errorf("TP=%d FP=%d; duplicates on one event should not count as FPs", tally.TP, tally.FP)
	}
}

func TestTallyRatios(t *testing.T) {
	tl := Tally{TP: 2, FP: 10, FN: 1}
	if got := tl.Precision(); math.Abs(got-2.0/12.0) > 1e-12 {
		t.Errorf("precision %v", got)
	}
	if got := tl.Recall(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("recall %v", got)
	}
	if got := tl.FPPerTP(); got != 5 {
		t.Errorf("FP per TP %v", got)
	}
	empty := Tally{}
	if empty.Precision() != 1 || empty.Recall() != 1 || empty.FPPerTP() != 0 {
		t.Error("empty tally conventions")
	}
	silent := Tally{FP: 3}
	if !math.IsInf(silent.FPPerTP(), 1) {
		t.Error("FP without TP should be +Inf")
	}
}

func TestMonitorErrors(t *testing.T) {
	m := &Monitor{}
	if _, err := m.Run(make([]float64, 100)); err == nil {
		t.Error("nil classifier should error")
	}
	train, err := synth.WordDataset(synth.NewRand(1), []string{"cat", "dog"}, 5, 44, synth.DefaultWordConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := etsc.TrainSpecString("probthreshold:threshold=0.9,minprefix=5", train)
	if err != nil {
		t.Fatal(err)
	}
	m = &Monitor{Classifier: c}
	if _, err := m.Run(make([]float64, 10)); err == nil {
		t.Error("stream shorter than window should error")
	}
}

func TestSuppress(t *testing.T) {
	dets := []Detection{
		{DecisionAt: 10, Label: 1},
		{DecisionAt: 12, Label: 1}, // suppressed
		{DecisionAt: 13, Label: 2}, // different label: kept
		{DecisionAt: 60, Label: 1}, // far enough: kept
	}
	out := suppress(dets, 20)
	if len(out) != 3 {
		t.Errorf("got %d detections after suppression, want 3: %+v", len(out), out)
	}
}

func TestNNVerifier(t *testing.T) {
	// Training class 1: sine bumps; class 2: ramps.
	var instances []dataset.Instance
	rng := synth.NewRand(2)
	n := 30
	for i := 0; i < 8; i++ {
		bump := make(ts.Series, n)
		ramp := make(ts.Series, n)
		for j := 0; j < n; j++ {
			x := float64(j) / float64(n)
			bump[j] = math.Sin(math.Pi*x) + rng.NormFloat64()*0.05
			ramp[j] = x + rng.NormFloat64()*0.05
		}
		instances = append(instances,
			dataset.Instance{Label: 1, Series: ts.ZNorm(bump)},
			dataset.Instance{Label: 2, Series: ts.ZNorm(ramp)})
	}
	train, err := dataset.New("verify", instances)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewNNVerifier(train, 0.95, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Threshold(1) <= 0 {
		t.Errorf("threshold %v", v.Threshold(1))
	}
	// A fresh bump should verify as class 1, not class 2.
	fresh := make(ts.Series, n)
	for j := 0; j < n; j++ {
		fresh[j] = math.Sin(math.Pi*float64(j)/float64(n))*2 + 5
	}
	if !v.Verify(fresh, 1) {
		t.Error("genuine bump rejected")
	}
	if v.Verify(fresh, 2) {
		t.Error("bump accepted as ramp")
	}
	// Noise should be rejected for both classes.
	noise := make(ts.Series, n)
	for j := range noise {
		noise[j] = rng.NormFloat64()
	}
	if v.Verify(noise, 1) && v.Verify(noise, 2) {
		t.Error("noise accepted by both classes")
	}
	// Unknown label rejected.
	if v.Verify(fresh, 9) {
		t.Error("unknown label accepted")
	}
}

// TestNNVerifierVerifyAllocatesOnce pins that the training exemplars are
// z-normalized at construction: a Verify that scans every same-label
// exemplar and rejects allocates only the window's own z-norm.
func TestNNVerifierVerifyAllocatesOnce(t *testing.T) {
	rng := synth.NewRand(3)
	var instances []dataset.Instance
	for i := 0; i < 6; i++ {
		s := make(ts.Series, 16)
		for j := range s {
			s[j] = math.Sin(float64(j)/3) + rng.NormFloat64()*0.05
		}
		instances = append(instances, dataset.Instance{Label: 1, Series: s})
	}
	train, err := dataset.New("allocs", instances)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewNNVerifier(train, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	window := make([]float64, 16)
	for j := range window {
		window[j] = rng.NormFloat64()
	}
	if v.Verify(window, 1) {
		t.Fatal("noise window accepted; the scan must visit every exemplar")
	}
	if allocs := testing.AllocsPerRun(50, func() { v.Verify(window, 1) }); allocs != 1 {
		t.Fatalf("Verify allocated %v times per call, want 1", allocs)
	}
}

func TestNNVerifierErrors(t *testing.T) {
	if _, err := NewNNVerifier(nil, 0.95, 1); err == nil {
		t.Error("nil train should error")
	}
	d, err := dataset.New("tiny", []dataset.Instance{
		{Label: 1, Series: ts.Series{1, 2}},
		{Label: 1, Series: ts.Series{2, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNNVerifier(d, 2, 1); err == nil {
		t.Error("quantile > 1 should error")
	}
}

func TestVerifyMarksOutOfStreamAsRecanted(t *testing.T) {
	d, err := dataset.New("tiny", []dataset.Instance{
		{Label: 1, Series: ts.Series{0, 1, 0, 1}},
		{Label: 1, Series: ts.Series{1, 0, 1, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewNNVerifier(d, 0.95, 5)
	if err != nil {
		t.Fatal(err)
	}
	dets := []Detection{{Start: 8, DecisionAt: 9, Label: 1}}
	Verify(dets, make([]float64, 10), 4, v)
	if !dets[0].Recanted {
		t.Error("window extending past the stream must be recanted")
	}
}
