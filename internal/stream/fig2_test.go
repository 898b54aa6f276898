package stream

import (
	"strings"
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/etsc"
	"etsc/internal/synth"
)

// wordModel trains a cat/dog early classifier at stream scale (utterances
// resampled to their natural duration, not stretched to 150).
func wordModel(t testing.TB, length int) (*dataset.Dataset, etsc.EarlyClassifier) {
	t.Helper()
	train, err := synth.WordDataset(synth.NewRand(11), []string{"cat", "dog"}, 30, length, synth.DefaultWordConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := etsc.TrainSpecString("teaser", train)
	if err != nil {
		t.Fatal(err)
	}
	return train, c
}

// TestFig2CathySentence reproduces the paper's Fig. 2: streaming the
// sentence "It was said that Cathy's dogmatic catechism dogmatized catholic
// doggery" past a cat/dog early classifier produces early positives on the
// embedded stems — and every single one must later be recanted, because the
// sentence contains no actual utterance of "cat" or "dog".
func TestFig2CathySentence(t *testing.T) {
	const wordLen = 44
	train, c := wordModel(t, wordLen)

	stream, intervals, err := synth.Sentence(synth.NewRand(23), synth.CathySentence, synth.DefaultWordConfig(), 30)
	if err != nil {
		t.Fatal(err)
	}

	m := &Monitor{Classifier: c, Stride: 2, Step: 2, Suppress: wordLen / 2}
	dets, err := m.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 {
		t.Fatal("no early detections at all — the ETSC monitor should fire on the stem words")
	}

	// Ground truth: the sentence contains no standalone cat/dog, so every
	// detection is a false positive.
	var truth []GroundTruth
	for _, iv := range intervals {
		if iv.Word == "cat" || iv.Word == "dog" {
			label := 1
			if iv.Word == "dog" {
				label = 2
			}
			truth = append(truth, GroundTruth{Label: label, Start: iv.Start, End: iv.End})
		}
	}
	tally := Match(dets, truth, 0)
	if tally.TP != 0 {
		t.Errorf("TP = %d, want 0 (no true cat/dog in the sentence)", tally.TP)
	}
	if tally.FP != len(dets) {
		t.Errorf("FP = %d, want all %d detections", tally.FP, len(dets))
	}

	// Every embedded stem should have triggered at least one detection.
	stems := map[string]int{
		"cathys": 0, "catechism": 0, "catholic": 0,
		"dogmatic": 0, "dogmatized": 0, "doggery": 0,
	}
	for _, d := range dets {
		for _, iv := range intervals {
			if _, ok := stems[iv.Word]; !ok {
				continue
			}
			if d.DecisionAt >= iv.Start && d.DecisionAt < iv.End+wordLen/2 {
				stems[iv.Word]++
			}
		}
	}
	var missing []string
	hit := 0
	for w, n := range stems {
		if n == 0 {
			missing = append(missing, w)
		} else {
			hit++
		}
	}
	t.Logf("detections: %d; stem hits: %v", len(dets), stems)
	if hit < 4 {
		t.Errorf("only %d/6 stems triggered detections (missing: %s)", hit, strings.Join(missing, ", "))
	}

	// The recant step: once the full window is visible, the verifier must
	// reject (essentially) every detection — "all of which will later have
	// to be recanted".
	v, err := NewNNVerifier(train, 0.95, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	Verify(dets, stream, wordLen, v)
	recanted := 0
	for _, d := range dets {
		if d.Recanted {
			recanted++
		}
	}
	t.Logf("recanted: %d/%d", recanted, len(dets))
	if float64(recanted) < 0.8*float64(len(dets)) {
		t.Errorf("only %d/%d detections recanted; expected (essentially) all", recanted, len(dets))
	}
}

// TestFig2TrueUtteranceIsDetected is the control: a sentence that really
// contains "cat" and "dog" must yield true positives that survive
// verification — the monitor works; the *problem setting* is what fails.
func TestFig2TrueUtteranceIsDetected(t *testing.T) {
	const wordLen = 44
	train, c := wordModel(t, wordLen)

	words := []string{"it", "was", "a", "cat", "in", "the", "morning", "dog"}
	stream, intervals, err := synth.Sentence(synth.NewRand(31), words, synth.DefaultWordConfig(), 30)
	if err != nil {
		t.Fatal(err)
	}
	m := &Monitor{Classifier: c, Stride: 2, Step: 2, Suppress: wordLen / 2}
	dets, err := m.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	var truth []GroundTruth
	for _, iv := range intervals {
		switch iv.Word {
		case "cat":
			truth = append(truth, GroundTruth{Label: 1, Start: iv.Start, End: iv.End})
		case "dog":
			truth = append(truth, GroundTruth{Label: 2, Start: iv.Start, End: iv.End})
		}
	}
	tally := Match(dets, truth, wordLen/2)
	t.Logf("control: %d detections, TP=%d FP=%d FN=%d", len(dets), tally.TP, tally.FP, tally.FN)
	if tally.TP < 2 {
		t.Errorf("true cat+dog should both be detected, TP = %d", tally.TP)
	}

	v, err := NewNNVerifier(train, 0.95, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	Verify(dets, stream, wordLen, v)
	survivors := 0
	for _, d := range dets {
		if !d.Recanted {
			survivors++
		}
	}
	if survivors == 0 {
		t.Error("at least the true detections should survive verification")
	}
}
