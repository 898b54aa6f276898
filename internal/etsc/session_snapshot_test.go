package etsc

import (
	"errors"
	"testing"

	"etsc/internal/snap"
)

// TestSessionSnapshotEquivalence is the session-layer half of the durable
// state proof: for every classifier (native sessions and the pure-adapter
// fallback) and several split points, a session snapshotted mid-stream and
// restored into a fresh session produces the same decision sequence over
// the remaining points as the session that never stopped.
func TestSessionSnapshotEquivalence(t *testing.T) {
	train, test := smallGunPointSplit(t)
	for _, c := range engineClassifiers(t, train) {
		for _, split := range []int{0, 1, 7, 20, train.SeriesLen() - 1, train.SeriesLen() + 5} {
			name := c.Name()
			for ti, in := range test.Instances {
				if ti >= 4 {
					break
				}
				series := in.Series
				straight := OpenSession(c)
				interrupted := OpenSession(c)

				// Drive both to the split point in small uneven chunks.
				feed := func(s IncrementalSession, from, to int) []Decision {
					var out []Decision
					for at := from; at < to; {
						n := 3
						if at+n > to {
							n = to - at
						}
						out = append(out, s.Extend(series[at:at+n]))
						at += n
					}
					return out
				}
				end := split
				if end > len(series) {
					end = len(series)
				}
				d1 := feed(straight, 0, end)
				d2 := feed(interrupted, 0, end)

				// Snapshot, restore into a fresh session.
				var w snap.Writer
				if err := SnapshotSessionState(interrupted, &w); err != nil {
					t.Fatalf("%s split %d: snapshot: %v", name, split, err)
				}
				restored := OpenSession(c)
				r := snap.NewReader(w.Bytes())
				if err := RestoreSessionState(restored, r); err != nil {
					t.Fatalf("%s split %d: restore: %v", name, split, err)
				}
				if err := r.Done(); err != nil {
					t.Fatalf("%s split %d: trailing snapshot bytes: %v", name, split, err)
				}

				// The rest of the stream through both.
				d1 = append(d1, feed(straight, end, len(series))...)
				d2 = append(d2, feed(restored, end, len(series))...)
				if len(d1) != len(d2) {
					t.Fatalf("%s split %d: %d vs %d decisions", name, split, len(d1), len(d2))
				}
				for i := range d1 {
					if d1[i] != d2[i] {
						t.Fatalf("%s split %d: decision %d diverged: %+v vs %+v",
							name, split, i, d1[i], d2[i])
					}
				}
			}
		}
	}
}

// TestSessionSnapshotCrossEngine pins the one cross-engine rule left: a
// session frame written by the retired lazy frontier restores into today's
// eager-bank session. Such a frame carries bank flavor 'L' and the raw
// query prefix instead of the accumulators; checkpoints written before the
// frontier went hold them. The frame is built by hand, field by field —
// session tag, decision state, flavor 'L', the query — so the test pins
// the wire layout, not whatever the writer emits today. Restored sessions
// must then decide exactly like sessions that saw the same points
// uninterrupted, and an 'L' query longer than the model fails cleanly.
func TestSessionSnapshotCrossEngine(t *testing.T) {
	train, test := smallGunPointSplit(t)
	ects, err := trainECTS(serialContext(t, train), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := trainProbThreshold(train, 0.8, 30)
	if err != nil {
		t.Fatal(err)
	}
	series := test.Instances[0].Series
	const split = 11
	lazyFrame := func(tag byte, query []float64) []byte {
		var w snap.Writer
		w.Byte(tag)
		w.Bool(false) // done
		w.Int(0)      // latched decision: label
		w.Bool(false) // latched decision: ready
		w.Byte('L')
		w.Floats(query)
		return w.Bytes()
	}
	for _, tc := range []struct {
		c   EarlyClassifier
		tag byte
	}{{ects, 'C'}, {prob, 'P'}} {
		straight := OpenSession(tc.c)
		if d := straight.Extend(series[:split]); d.Ready {
			t.Fatalf("%s committed within %d points; the frame would be a latched one", tc.c.Name(), split)
		}
		restored := OpenSession(tc.c)
		r := snap.NewReader(lazyFrame(tc.tag, series[:split]))
		if err := RestoreSessionState(restored, r); err != nil {
			t.Fatalf("%s: lazy frame into eager session: %v", tc.c.Name(), err)
		}
		if err := r.Done(); err != nil {
			t.Fatalf("%s: trailing frame bytes: %v", tc.c.Name(), err)
		}
		for at := split; at < len(series); at++ {
			got := restored.Extend(series[at : at+1])
			want := straight.Extend(series[at : at+1])
			if got != want {
				t.Fatalf("%s: restored lazy frame diverged at %d: %+v vs %+v", tc.c.Name(), at, got, want)
			}
		}

		long := append(append([]float64(nil), series...), 0)
		err := RestoreSessionState(OpenSession(tc.c), snap.NewReader(lazyFrame(tc.tag, long)))
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("%s: over-long lazy query: err = %v, want ErrCorrupt", tc.c.Name(), err)
		}
	}
}

// TestSessionRestoreRejectsCorruption drives hand-corrupted session bytes
// through every restore path: wrong tags, truncations, and out-of-range
// fields all fail with errors (wrapping snap sentinels), never a panic.
func TestSessionRestoreRejectsCorruption(t *testing.T) {
	train, test := smallGunPointSplit(t)
	series := test.Instances[0].Series
	for _, c := range engineClassifiers(t, train) {
		sess := OpenSession(c)
		sess.Extend(series[:13])
		var w snap.Writer
		if err := SnapshotSessionState(sess, &w); err != nil {
			t.Fatalf("%s: snapshot: %v", c.Name(), err)
		}
		good := w.Bytes()

		cases := map[string][]byte{
			"empty":       nil,
			"wrong tag":   append([]byte{'Z'}, good[1:]...),
			"truncated":   good[:len(good)/2],
			"single byte": good[:1],
		}
		for name, data := range cases {
			fresh := OpenSession(c)
			if err := RestoreSessionState(fresh, snap.NewReader(data)); err == nil {
				t.Errorf("%s: restore of %s bytes succeeded", c.Name(), name)
			}
		}

		// Every prefix of the good bytes must also fail cleanly (or, for
		// the full prefix, succeed) — the no-panic sweep.
		for cut := 0; cut < len(good); cut++ {
			fresh := OpenSession(c)
			r := snap.NewReader(good[:cut])
			if err := RestoreSessionState(fresh, r); err == nil && r.Done() == nil {
				t.Errorf("%s: restore of %d/%d-byte prefix reported clean", c.Name(), cut, len(good))
			}
		}
	}
}
