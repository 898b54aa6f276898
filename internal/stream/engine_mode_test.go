package stream

import (
	"reflect"
	"testing"

	"etsc/internal/etsc"
	"etsc/internal/synth"
)

// TestMonitorEngineModesIdentical pins the monitor half of the engine-mode
// contract: pruned and eager candidate sessions must yield byte-identical
// detections for any worker count (the hub test covers the Online path).
func TestMonitorEngineModesIdentical(t *testing.T) {
	c, stream := monitorFixture(t)
	base := &Monitor{Classifier: c, Stride: 8, Step: 8, Suppress: 75, Parallelism: 1, Engine: etsc.Eager}
	want, err := base.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture produced no detections; the equivalence check would be vacuous")
	}
	for _, workers := range []int{1, 4, 0} {
		m := &Monitor{Classifier: c, Stride: 8, Step: 8, Suppress: 75, Parallelism: workers, Engine: etsc.Pruned}
		got, err := m.Run(stream)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: pruned detections differ from eager:\n%+v\n!=\n%+v", workers, got, want)
		}
	}
}

// TestMonitorEngineValidation rejects out-of-range engine modes, matching
// the monitor's explicit-configuration style.
func TestMonitorEngineValidation(t *testing.T) {
	train, err := synth.WordDataset(synth.NewRand(11), []string{"cat", "dog"}, 4, 44, synth.DefaultWordConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := etsc.TrainSpecString("probthreshold:threshold=0.8,minprefix=5", train)
	if err != nil {
		t.Fatal(err)
	}
	m := &Monitor{Classifier: c, Engine: etsc.EngineMode(7)}
	if _, err := m.Run(make([]float64, c.FullLength())); err == nil {
		t.Fatal("invalid engine mode accepted")
	}
	if _, err := NewOnlineEngine(c, 0, 0, etsc.EngineMode(-1)); err == nil {
		t.Fatal("NewOnlineEngine accepted invalid mode")
	}
}
