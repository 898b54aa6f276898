package stream

import (
	"testing"

	"etsc/internal/etsc"
	"etsc/internal/synth"
)

// TestOnlineMatchesBatch asserts the point-at-a-time monitor produces
// exactly the same detections as the batch monitor.
func TestOnlineMatchesBatch(t *testing.T) {
	train, c := wordModel(t, 44)
	_ = train
	sentence, _, err := synth.Sentence(synth.NewRand(23), synth.CathySentence, synth.DefaultWordConfig(), 30)
	if err != nil {
		t.Fatal(err)
	}

	batch := &Monitor{Classifier: c, Stride: 2, Step: 2} // no suppression
	want, err := batch.Run(sentence)
	if err != nil {
		t.Fatal(err)
	}

	on, err := NewOnline(c, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := on.PushBatch(sentence)

	// The batch monitor only opens candidates whose full window fits the
	// stream; the online monitor cannot know the stream will end, so drop
	// online detections whose window extends past the end.
	var gotTrimmed []Detection
	for _, d := range got {
		if d.Start+c.FullLength() <= len(sentence) {
			gotTrimmed = append(gotTrimmed, d)
		}
	}
	if len(gotTrimmed) != len(want) {
		t.Fatalf("online %d detections, batch %d", len(gotTrimmed), len(want))
	}
	for i := range want {
		if want[i] != gotTrimmed[i] {
			t.Errorf("detection %d differs: online %+v batch %+v", i, gotTrimmed[i], want[i])
		}
	}
}

func TestOnlineMemoryBounded(t *testing.T) {
	train, err := synth.WordDataset(synth.NewRand(11), []string{"cat", "dog"}, 10, 44, synth.DefaultWordConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := etsc.TrainSpecString("probthreshold:threshold=0.95,minprefix=10", train)
	if err != nil {
		t.Fatal(err)
	}
	on, err := NewOnline(c, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := synth.NewRand(1)
	for i := 0; i < 50_000; i++ {
		on.Push(rng.NormFloat64())
		if n := on.ActiveCandidates(); n > 44/4+2 {
			t.Fatalf("candidate count %d unbounded at sample %d", n, i)
		}
		if len(on.buf) > 44+2*4 {
			t.Fatalf("buffer %d unbounded at sample %d", len(on.buf), i)
		}
	}
	if on.Pos() != 50_000 {
		t.Errorf("pos %d", on.Pos())
	}
}

func TestOnlineValidation(t *testing.T) {
	if _, err := NewOnline(nil, 1, 1); err == nil {
		t.Error("nil classifier should error")
	}
	train, err := synth.WordDataset(synth.NewRand(11), []string{"cat", "dog"}, 4, 44, synth.DefaultWordConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := etsc.TrainSpecString("probthreshold:threshold=0.8,minprefix=5", train)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOnline(c, -1, 1); err == nil {
		t.Error("negative stride should error")
	}
	if _, err := NewOnline(c, 1, -4); err == nil {
		t.Error("negative step should error")
	}
	if _, err := NewOnline(c, 0, 0); err != nil {
		t.Errorf("zero stride/step should default, got %v", err)
	}
}
