package etsc

import (
	"errors"
	"testing"

	"etsc/internal/snap"
)

// TestSessionSnapshotEquivalence is the session-layer half of the durable
// state proof: for every classifier (native sessions and both adapter
// fallbacks), both engine modes, and several split points, a session
// snapshotted mid-stream and restored into a fresh session produces the
// same decision sequence over the remaining points as the session that
// never stopped.
func TestSessionSnapshotEquivalence(t *testing.T) {
	train, test := smallGunPointSplit(t)
	for _, c := range engineClassifiers(t, train) {
		for _, mode := range []EngineMode{Pruned, Eager} {
			for _, split := range []int{0, 1, 7, 20, train.SeriesLen() - 1, train.SeriesLen() + 5} {
				name := c.Name() + "/" + map[EngineMode]string{Pruned: "pruned", Eager: "eager"}[mode]
				for ti, in := range test.Instances {
					if ti >= 4 {
						break
					}
					series := in.Series
					straight := OpenSessionMode(c, mode)
					interrupted := OpenSessionMode(c, mode)

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
					restored := OpenSessionMode(c, mode)
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
}

// TestSessionSnapshotCrossEngine pins the bank-flavor rules: a pruned
// (lazy) snapshot restores into an eager session bit-identically — the
// query replay folds exactly like the original accumulation — while an
// eager snapshot into a pruned session fails with a structured error, not
// a panic, because folded accumulators cannot seed a lazy frontier.
func TestSessionSnapshotCrossEngine(t *testing.T) {
	train, test := smallGunPointSplit(t)
	ects, err := trainECTS(train, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	series := test.Instances[0].Series

	// Lazy snapshot → eager session: decisions must match the lazy run.
	lazySess := OpenSessionMode(ects, Pruned)
	lazySess.Extend(series[:11])
	var w snap.Writer
	if err := SnapshotSessionState(lazySess, &w); err != nil {
		t.Fatal(err)
	}
	eagerSess := OpenSessionMode(ects, Eager)
	if err := RestoreSessionState(eagerSess, snap.NewReader(w.Bytes())); err != nil {
		t.Fatalf("lazy snapshot into eager session: %v", err)
	}
	for at := 11; at < len(series); at++ {
		got := eagerSess.Extend(series[at : at+1])
		want := lazySess.Extend(series[at : at+1])
		if got != want {
			t.Fatalf("cross-engine restore diverged at %d: %+v vs %+v", at, got, want)
		}
	}

	// Eager snapshot → pruned session: structured failure.
	eager2 := OpenSessionMode(ects, Eager)
	eager2.Extend(series[:11])
	var w2 snap.Writer
	if err := SnapshotSessionState(eager2, &w2); err != nil {
		t.Fatal(err)
	}
	lazy2 := OpenSessionMode(ects, Pruned)
	if err := RestoreSessionState(lazy2, snap.NewReader(w2.Bytes())); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("eager snapshot into pruned session: err = %v, want ErrCorrupt", err)
	}
}

// TestSessionRestoreRejectsCorruption drives hand-corrupted session bytes
// through every restore path: wrong tags, truncations, and out-of-range
// fields all fail with errors (wrapping snap sentinels), never a panic.
func TestSessionRestoreRejectsCorruption(t *testing.T) {
	train, test := smallGunPointSplit(t)
	series := test.Instances[0].Series
	for _, c := range engineClassifiers(t, train) {
		sess := OpenSessionMode(c, Pruned)
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
			fresh := OpenSessionMode(c, Pruned)
			if err := RestoreSessionState(fresh, snap.NewReader(data)); err == nil {
				t.Errorf("%s: restore of %s bytes succeeded", c.Name(), name)
			}
		}

		// Every prefix of the good bytes must also fail cleanly (or, for
		// the full prefix, succeed) — the no-panic sweep.
		for cut := 0; cut < len(good); cut++ {
			fresh := OpenSessionMode(c, Pruned)
			r := snap.NewReader(good[:cut])
			if err := RestoreSessionState(fresh, r); err == nil && r.Done() == nil {
				t.Errorf("%s: restore of %d/%d-byte prefix reported clean", c.Name(), cut, len(good))
			}
		}
	}
}
