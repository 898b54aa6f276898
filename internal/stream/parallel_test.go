package stream

import (
	"reflect"
	"testing"

	"etsc/internal/etsc"
	"etsc/internal/synth"
	"etsc/internal/ts"
)

func monitorFixture(t *testing.T) (etsc.EarlyClassifier, []float64) {
	t.Helper()
	cfg := synth.DefaultGunPointConfig()
	cfg.PerClassSize = 15
	d, err := synth.GunPoint(synth.NewRand(21), cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := d.Split(synth.NewRand(22), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := etsc.TrainSpecString("teaser", train)
	if err != nil {
		t.Fatal(err)
	}
	// A stream with real windows embedded in noise, so some candidates fire
	// and most do not.
	rng := synth.NewRand(23)
	var stream ts.Series
	for i := 0; i < 4; i++ {
		for j := 0; j < 160; j++ {
			stream = append(stream, rng.NormFloat64()*0.3)
		}
		stream = append(stream, test.Instances[i%test.Len()].Series...)
	}
	return c, stream
}

// TestMonitorParallelByteIdentical is the stream layer's determinism
// contract: Run output must be byte-identical for every worker count,
// including the serial pool.
func TestMonitorParallelByteIdentical(t *testing.T) {
	c, stream := monitorFixture(t)
	base := &Monitor{Classifier: c, Stride: 8, Step: 8, Suppress: 75, Parallelism: 1}
	want, err := base.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture produced no detections; the determinism check would be vacuous")
	}
	for _, workers := range []int{0, 2, 3, 16} {
		m := &Monitor{Classifier: c, Stride: 8, Step: 8, Suppress: 75, Parallelism: workers}
		got, err := m.Run(stream)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parallelism=%d: detections diverge from serial run\n got: %+v\nwant: %+v", workers, got, want)
		}
	}
}

// TestMonitorMatchesUnsuppressedOnlineAcrossWorkers cross-checks the
// parallel batch monitor against the strictly serial point-at-a-time
// Online monitor (they are documented to agree without suppression).
func TestMonitorMatchesUnsuppressedOnlineAcrossWorkers(t *testing.T) {
	c, stream := monitorFixture(t)
	on, err := NewOnline(c, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The batch monitor only opens candidates whose full window fits the
	// stream; drop online detections on trailing partial windows.
	var want []Detection
	for _, d := range on.PushBatch(stream) {
		if d.Start+c.FullLength() <= len(stream) {
			want = append(want, d)
		}
	}
	m := &Monitor{Classifier: c, Stride: 8, Step: 8, Parallelism: 0}
	got, err := m.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("monitor found %d detections, online found %d", len(got), len(want))
	}
	// Online emits in decision order; the batch monitor in candidate order.
	byStart := map[int]Detection{}
	for _, d := range want {
		byStart[d.Start] = d
	}
	for _, d := range got {
		if byStart[d.Start] != d {
			t.Fatalf("detection at start %d: batch %+v != online %+v", d.Start, d, byStart[d.Start])
		}
	}
}

// TestMonitorRejectsNegativeConfig covers the validation the monitor used
// to skip: negative strides/steps/suppression silently fell back to
// defaults before, now they are configuration errors.
func TestMonitorRejectsNegativeConfig(t *testing.T) {
	c, stream := monitorFixture(t)
	cases := []struct {
		name string
		m    Monitor
	}{
		{"negative stride", Monitor{Classifier: c, Stride: -1}},
		{"negative step", Monitor{Classifier: c, Step: -4}},
		{"negative suppress", Monitor{Classifier: c, Suppress: -10}},
		{"negative parallelism", Monitor{Classifier: c, Parallelism: -2}},
	}
	for _, tc := range cases {
		if _, err := tc.m.Run(stream); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Zeroes still mean "default"/"off".
	m := Monitor{Classifier: c}
	if _, err := m.Run(stream); err != nil {
		t.Errorf("zero-value config rejected: %v", err)
	}
}

// TestMonitorParallelWithFallbackClassifier runs the pool over a classifier
// without a native incremental session, exercising the engine's buffering
// adapter under concurrency.
func TestMonitorParallelWithFallbackClassifier(t *testing.T) {
	cfg := synth.DefaultGunPointConfig()
	cfg.PerClassSize = 10
	d, err := synth.GunPoint(synth.NewRand(31), cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := d.Split(synth.NewRand(32), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := etsc.TrainSpecString("ecdire", train)
	if err != nil {
		t.Fatal(err)
	}
	rng := synth.NewRand(33)
	stream := make([]float64, 1200)
	for i := range stream {
		stream[i] = rng.NormFloat64()
	}
	serial := &Monitor{Classifier: c, Stride: 16, Step: 16, Parallelism: 1}
	want, err := serial.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	parallel := &Monitor{Classifier: c, Stride: 16, Step: 16, Parallelism: 4}
	got, err := parallel.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback classifier diverges across worker counts:\n got %+v\nwant %+v", got, want)
	}
}
