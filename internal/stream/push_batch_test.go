package stream

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"etsc/internal/etsc"
)

// pushPointwise drives o one sample at a time — the reference transcript
// PushBatch is pinned against.
func pushPointwise(o *Online, stream []float64) []Detection {
	var out []Detection
	for _, v := range stream {
		out = append(out, o.Push(v)...)
	}
	return out
}

func sameDetections(t *testing.T, ctx string, got, want []Detection) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d detections != %d\n%+v\n!=\n%+v", ctx, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s detection %d: %+v != %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestOnlinePushBatchMatchesPointwise pins the candidate-major batched
// decode byte-identical to point-at-a-time Push: same detections, same
// order, same final monitor state — across classifiers, stride/step
// shapes, and batch sizes from single points to several windows at once.
func TestOnlinePushBatchMatchesPointwise(t *testing.T) {
	train := fuzzTrainSet(t)
	fixed, err := etsc.TrainSpecString("fixedprefix:at=10,znorm=true", train)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := etsc.TrainSpecString("probthreshold:threshold=0.8,minprefix=4", train)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	stream := make([]float64, 700)
	for i := range stream {
		stream[i] = rng.NormFloat64()
	}
	for _, clf := range []etsc.EarlyClassifier{fixed, prob} {
		for _, ss := range [][2]int{{1, 1}, {4, 4}, {3, 5}, {25, 2}, {7, 20}} {
			for _, batch := range []int{1, 2, 5, 16, 21, 64, 200} {
				a, err := NewOnline(clf, ss[0], ss[1])
				if err != nil {
					t.Fatal(err)
				}
				b, err := NewOnline(clf, ss[0], ss[1])
				if err != nil {
					t.Fatal(err)
				}
				want := pushPointwise(a, stream)
				var got []Detection
				for off := 0; off < len(stream); off += batch {
					end := off + batch
					if end > len(stream) {
						end = len(stream)
					}
					got = append(got, b.PushBatch(stream[off:end])...)
				}
				ctx := clf.Name()
				sameDetections(t, ctx, got, want)
				if a.Pos() != b.Pos() || a.ActiveCandidates() != b.ActiveCandidates() {
					t.Fatalf("%s stride=%d step=%d batch=%d: state diverged: pos %d/%d candidates %d/%d",
						ctx, ss[0], ss[1], batch, a.Pos(), b.Pos(), a.ActiveCandidates(), b.ActiveCandidates())
				}
			}
		}
	}
}

// TestOnlinePushBatchWholeStream pushes the entire stream as one batch —
// many windows long, exercising the internal segmentation — and pins it to
// the pointwise transcript.
func TestOnlinePushBatchWholeStream(t *testing.T) {
	train := fuzzTrainSet(t)
	prob, err := etsc.TrainSpecString("probthreshold:threshold=0.8,minprefix=4", train)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	stream := make([]float64, 2000)
	for i := range stream {
		stream[i] = rng.NormFloat64()
	}
	a, _ := NewOnline(prob, 4, 4)
	b, _ := NewOnline(prob, 4, 4)
	sameDetections(t, "whole-stream", b.PushBatch(stream), pushPointwise(a, stream))
}

// FuzzOnlinePushBatch drives arbitrary values through arbitrary batch
// splits and asserts the batched transcript equals the pointwise one,
// detection for detection.
func FuzzOnlinePushBatch(f *testing.F) {
	f.Add(make([]byte, 160), uint8(4), uint8(4))
	nan := make([]byte, 48)
	binary.LittleEndian.PutUint64(nan[0:], math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint64(nan[8:], math.Float64bits(math.Inf(1)))
	f.Add(nan, uint8(1), uint8(2))
	f.Add(make([]byte, 400), uint8(31), uint8(3))

	train := fuzzTrainSet(f)
	classifiers := []etsc.EarlyClassifier{}
	if c, err := etsc.TrainSpecString("fixedprefix:at=10,znorm=true", train); err == nil {
		classifiers = append(classifiers, c)
	}
	if c, err := etsc.TrainSpecString("probthreshold:threshold=0.8,minprefix=4", train); err == nil {
		classifiers = append(classifiers, c)
	}
	if len(classifiers) == 0 {
		f.Fatal("no classifiers built")
	}

	f.Fuzz(func(t *testing.T, data []byte, strideB, stepB uint8) {
		stride := int(strideB)%33 + 1
		step := int(stepB)%7 + 1
		clf := classifiers[int(strideB+stepB)%len(classifiers)]
		a, err := NewOnline(clf, stride, step)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewOnline(clf, stride, step)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) > 0 {
			n := int(data[0])%40 + 1
			data = data[1:]
			var batch []float64
			for i := 0; i < n && len(data) >= 8; i++ {
				batch = append(batch, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
				data = data[8:]
			}
			if len(batch) == 0 {
				break
			}
			want := pushPointwise(a, batch)
			got := b.PushBatch(batch)
			if len(got) != len(want) {
				t.Fatalf("%d detections != %d", len(got), len(want))
			}
			for i := range want {
				gi, wi := got[i], want[i]
				// Compare field-wise with bit-equality on the float so a
				// NaN-valued Earliness can't produce a vacuous mismatch.
				if gi.Start != wi.Start || gi.DecisionAt != wi.DecisionAt || gi.Label != wi.Label ||
					math.Float64bits(gi.Earliness) != math.Float64bits(wi.Earliness) {
					t.Fatalf("detection %d: %+v != %+v", i, gi, wi)
				}
			}
			if a.Pos() != b.Pos() || a.ActiveCandidates() != b.ActiveCandidates() {
				t.Fatalf("state diverged: pos %d/%d candidates %d/%d",
					a.Pos(), b.Pos(), a.ActiveCandidates(), b.ActiveCandidates())
			}
		}
	})
}
