package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"etsc/internal/etsc"
	"etsc/internal/snap"
	"etsc/internal/synth"
)

// TestOnlineSnapshotEquivalence is the monitor-layer half of the durable
// state proof: snapshot mid-stream, restore into a fresh monitor, and the
// remaining points produce exactly the detections of the monitor that
// never stopped. It covers every registered algorithm's session, the
// buffering adapter, and a session type defined outside package etsc, at
// four stride/step geometries and splits at the start of the stream,
// around one window, and before the last point.
func TestOnlineSnapshotEquivalence(t *testing.T) {
	const wordLen = 64 // EDSC's default shapelet lengths reach 60
	train, err := synth.WordDataset(synth.NewRand(11), []string{"cat", "dog"}, 10, wordLen, synth.DefaultWordConfig())
	if err != nil {
		t.Fatal(err)
	}
	series, _, err := synth.Sentence(synth.NewRand(23), synth.CathySentence, synth.DefaultWordConfig(), 30)
	if err != nil {
		t.Fatal(err)
	}
	var classifiers []etsc.EarlyClassifier
	for _, spec := range []string{
		"ects", "ects:relaxed=true", "ecdire", "costaware", "teaser", "edsc", "edsc:method=kde",
		"relclass", "relclass:pooled=true", "probthreshold", "fixedprefix",
	} {
		c, err := etsc.TrainSpecString(spec, train)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		classifiers = append(classifiers, c)
	}
	classifiers = append(classifiers, adapterOnly{classifiers[0]}, chunkClassifier{full: wordLen})

	fired := 0
	for _, c := range classifiers {
		for _, g := range []struct{ stride, step int }{{4, 4}, {3, 5}, {8, 8}, {1, 7}} {
			name := fmt.Sprintf("%s/stride=%d,step=%d", c.Name(), g.stride, g.step)
			straight, err := NewOnline(c, g.stride, g.step)
			if err != nil {
				t.Fatal(err)
			}
			want := straight.PushBatch(series)
			fired += len(want)
			w := c.FullLength()
			for _, split := range []int{0, 1, w - 1, w, w + 1, len(series) - 1} {
				interrupted, err := NewOnline(c, g.stride, g.step)
				if err != nil {
					t.Fatal(err)
				}
				got := interrupted.PushBatch(series[:split])
				var sw snap.Writer
				interrupted.SnapshotTo(&sw)
				restored, err := NewOnline(c, g.stride, g.step)
				if err != nil {
					t.Fatal(err)
				}
				r := snap.NewReader(sw.Bytes())
				if err := restored.RestoreFrom(r); err != nil {
					t.Fatalf("%s split %d: restore: %v", name, split, err)
				}
				if err := r.Done(); err != nil {
					t.Fatalf("%s split %d: trailing bytes: %v", name, split, err)
				}
				if restored.Pos() != interrupted.Pos() || restored.ActiveCandidates() != interrupted.ActiveCandidates() {
					t.Fatalf("%s split %d: restored pos %d candidates %d, want %d / %d", name, split,
						restored.Pos(), restored.ActiveCandidates(), interrupted.Pos(), interrupted.ActiveCandidates())
				}
				got = append(got, restored.PushBatch(series[split:])...)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s split %d: stitched transcript\n got %+v\nwant %+v", name, split, got, want)
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("no classifier fired on the sentence; the comparison is vacuous")
	}
}

// adapterOnly hides a classifier's native session, so OpenSession drives
// it through the buffering adapter over ClassifyPrefix.
type adapterOnly struct{ etsc.EarlyClassifier }

func (a adapterOnly) Name() string { return a.EarlyClassifier.Name() + " via adapter" }

// chunkClassifier is an IncrementalClassifier defined outside package
// etsc. Its session commits, by the sign of the running sum, once that sum
// leaves [-2, 2] at the end of its third or later Extend call — so its
// decisions depend on how the points were chunked, not only on which
// points arrived.
type chunkClassifier struct{ full int }

func (c chunkClassifier) Name() string    { return "chunk" }
func (c chunkClassifier) FullLength() int { return c.full }

func (c chunkClassifier) ClassifyPrefix(prefix []float64) etsc.Decision {
	return c.NewIncrementalSession().Extend(prefix)
}

func (c chunkClassifier) ForcedLabel(series []float64) int {
	return c.ClassifyPrefix(series).Label
}

func (c chunkClassifier) NewIncrementalSession() etsc.IncrementalSession {
	return &chunkSession{full: c.full}
}

type chunkSession struct {
	full, seen, calls int
	sum               float64
	dec               etsc.Decision
}

func (s *chunkSession) Extend(points []float64) etsc.Decision {
	if s.dec.Ready {
		return s.dec
	}
	points = points[:min(len(points), s.full-s.seen)]
	for _, v := range points {
		s.sum += v
	}
	s.seen += len(points)
	s.calls++
	s.dec.Label = 1
	if s.sum < 0 {
		s.dec.Label = 2
	}
	s.dec.Ready = s.calls >= 3 && math.Abs(s.sum) > 2
	return s.dec
}

// TestOnlineRestoreRejectsCorruption drives truncations and field-level
// corruption of a real monitor snapshot through RestoreFrom: every
// malformed input fails with an error, never a panic, and a restore into a
// used monitor is refused.
func TestOnlineRestoreRejectsCorruption(t *testing.T) {
	train := fuzzTrainSet(t)
	prob, err := etsc.TrainSpecString("probthreshold:threshold=0.8,minprefix=4", train)
	if err != nil {
		t.Fatal(err)
	}
	rng := synth.NewRand(3)
	series := make([]float64, 60)
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	o, err := NewOnline(prob, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	o.PushBatch(series)
	var w snap.Writer
	o.SnapshotTo(&w)
	good := w.Bytes()

	fresh := func() *Online {
		m, err := NewOnline(prob, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// A restore into a monitor that has consumed points is refused.
	used := fresh()
	used.Push(1)
	if err := used.RestoreFrom(snap.NewReader(good)); err == nil {
		t.Error("restore into a used monitor succeeded")
	}

	// Every strict prefix must fail (truncation sweep), and every single
	// flipped byte must either fail or restore into a *working* monitor —
	// CRC protection lives a layer up, but nothing here may panic.
	for cut := 0; cut < len(good); cut++ {
		m := fresh()
		r := snap.NewReader(good[:cut])
		if err := m.RestoreFrom(r); err == nil && r.Done() == nil {
			t.Errorf("restore of %d/%d-byte prefix reported clean", cut, len(good))
		}
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x5A
		m := fresh()
		r := snap.NewReader(bad)
		if err := m.RestoreFrom(r); err == nil && r.Done() == nil {
			m.PushBatch(series[:10]) // must not panic if accepted
		}
	}
}

// TestSuppressorSnapshotRoundTrip pins the suppressor's state carry: a
// restored suppressor makes exactly the keep/drop decisions of the one
// that never stopped.
func TestSuppressorSnapshotRoundTrip(t *testing.T) {
	s := NewSuppressor(10)
	dets := []Detection{
		{DecisionAt: 5, Label: 1}, {DecisionAt: 9, Label: 1}, {DecisionAt: 12, Label: 2},
	}
	for _, d := range dets {
		s.Keep(d)
	}
	var w snap.Writer
	s.SnapshotTo(&w)
	s2 := NewSuppressor(10)
	r := snap.NewReader(w.Bytes())
	if err := s2.RestoreFrom(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	later := []Detection{
		{DecisionAt: 13, Label: 1}, {DecisionAt: 16, Label: 1}, {DecisionAt: 13, Label: 2}, {DecisionAt: 30, Label: 2},
	}
	for _, d := range later {
		if s.Keep(d) != s2.Keep(d) {
			t.Fatalf("suppressor diverged on %+v", d)
		}
	}
}

// FuzzOnlineRestoreEquivalence splits a fuzzed stream at an arbitrary
// point, snapshots and restores the monitor there, and requires the
// stitched transcript to equal the straight-through run — the fuzz form of
// TestOnlineSnapshotEquivalence, over arbitrary floats (NaN, ±Inf,
// subnormals) and arbitrary stride/step/split geometry.
func FuzzOnlineRestoreEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(4), uint8(4), uint8(8))
	nan := make([]byte, 24)
	binary.LittleEndian.PutUint64(nan[0:], math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint64(nan[8:], math.Float64bits(math.Inf(1)))
	binary.LittleEndian.PutUint64(nan[16:], math.Float64bits(math.Inf(-1)))
	f.Add(nan, uint8(1), uint8(2), uint8(1))
	f.Add(make([]byte, 300), uint8(7), uint8(3), uint8(100))

	train := fuzzTrainSet(f)
	var classifiers []etsc.EarlyClassifier
	for _, spec := range []string{"fixedprefix:at=10,znorm=true", "probthreshold:threshold=0.8,minprefix=4", "teaser", "ects"} {
		c, err := etsc.TrainSpecString(spec, train)
		if err != nil {
			f.Fatalf("%s: %v", spec, err)
		}
		classifiers = append(classifiers, c)
	}

	f.Fuzz(func(t *testing.T, data []byte, strideB, stepB, splitB uint8) {
		stride := int(strideB)%7 + 1
		step := int(stepB)%7 + 1
		clf := classifiers[int(strideB+stepB)%len(classifiers)]
		var points []float64
		for len(data) >= 8 {
			points = append(points, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
			data = data[8:]
		}
		split := 0
		if len(points) > 0 {
			split = int(splitB) % (len(points) + 1)
		}

		straight, err := NewOnline(clf, stride, step)
		if err != nil {
			t.Fatal(err)
		}
		interrupted, err := NewOnline(clf, stride, step)
		if err != nil {
			t.Fatal(err)
		}
		want := straight.PushBatch(points)

		got := interrupted.PushBatch(points[:split])
		var w snap.Writer
		interrupted.SnapshotTo(&w)
		restored, err := NewOnline(clf, stride, step)
		if err != nil {
			t.Fatal(err)
		}
		r := snap.NewReader(w.Bytes())
		if err := restored.RestoreFrom(r); err != nil {
			t.Fatalf("restore at %d: %v", split, err)
		}
		if err := r.Done(); err != nil {
			t.Fatalf("trailing snapshot bytes at %d: %v", split, err)
		}
		got = append(got, restored.PushBatch(points[split:])...)

		if len(want) != len(got) {
			t.Fatalf("split %d: %d vs %d detections", split, len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			same := w.Start == g.Start && w.DecisionAt == g.DecisionAt && w.Label == g.Label &&
				(w.Earliness == g.Earliness || (math.IsNaN(w.Earliness) && math.IsNaN(g.Earliness)))
			if !same {
				t.Fatalf("split %d: detection %d = %+v, want %+v", split, i, g, w)
			}
		}
	})
}
