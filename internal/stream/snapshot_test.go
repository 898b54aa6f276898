package stream

import (
	"encoding/binary"
	"math"
	"testing"

	"etsc/internal/etsc"
	"etsc/internal/snap"
	"etsc/internal/synth"
)

// TestOnlineSnapshotEquivalence is the monitor-layer half of the durable
// state proof: snapshot mid-stream, restore into a fresh monitor, and the
// remaining points produce exactly the detections of the monitor that
// never stopped — for several split points, including splits inside open
// candidate windows.
func TestOnlineSnapshotEquivalence(t *testing.T) {
	train := fuzzTrainSet(t)
	prob, err := etsc.TrainSpecString("probthreshold:threshold=0.8,minprefix=4", train)
	if err != nil {
		t.Fatal(err)
	}
	rng := synth.NewRand(99)
	series := make([]float64, 400)
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	for _, split := range []int{0, 1, 13, 50, 399} {
		straight, err := NewOnline(prob, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		interrupted, err := NewOnline(prob, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := straight.PushBatch(series[:split])
		got := interrupted.PushBatch(series[:split])

		var w snap.Writer
		if err := interrupted.SnapshotTo(&w); err != nil {
			t.Fatalf("split %d: snapshot: %v", split, err)
		}
		restored, err := NewOnline(prob, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		r := snap.NewReader(w.Bytes())
		if err := restored.RestoreFrom(r); err != nil {
			t.Fatalf("split %d: restore: %v", split, err)
		}
		if err := r.Done(); err != nil {
			t.Fatalf("split %d: trailing bytes: %v", split, err)
		}
		if restored.Pos() != split || restored.ActiveCandidates() != interrupted.ActiveCandidates() {
			t.Fatalf("split %d: restored pos %d candidates %d, want %d / %d",
				split, restored.Pos(), restored.ActiveCandidates(),
				split, interrupted.ActiveCandidates())
		}

		want = append(want, straight.PushBatch(series[split:])...)
		got = append(got, restored.PushBatch(series[split:])...)
		if len(want) != len(got) {
			t.Fatalf("split %d: %d vs %d detections", split, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("split %d: detection %d = %+v, want %+v", split, i, got[i], want[i])
			}
		}
	}
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
	if err := o.SnapshotTo(&w); err != nil {
		t.Fatal(err)
	}
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
		if err := interrupted.SnapshotTo(&w); err != nil {
			t.Fatalf("snapshot at %d: %v", split, err)
		}
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
