package hub

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etsc/internal/etsc"
	"etsc/internal/snap"
)

// recoveryKinds trains the demo kinds once for every recovery test in the
// package (training dominates wall-clock; the battery reuses it across
// topologies and worker counts).
var (
	recKindsOnce sync.Once
	recKinds     []Kind
	recKindsErr  error
)

func recoveryKinds(t testing.TB) []Kind {
	t.Helper()
	recKindsOnce.Do(func() {
		recKinds, recKindsErr = DemoKinds(77)
	})
	if recKindsErr != nil {
		t.Fatal(recKindsErr)
	}
	return recKinds
}

// TestCrashRecoveryBattery is the tentpole proof: run the demo workload,
// checkpoint every stream mid-flight, keep pushing, then kill each
// stream's drain worker at a random later batch — the SIGKILL-equivalent:
// the dequeued batch is lost, the stream freezes, the hub is abandoned
// without shutdown. A fresh hub restores every stream from its checkpoint
// and replays from the snapshot watermark with deliberate overlap and
// duplicated pushes (the watermark dedup must make replay idempotent). The
// final per-stream transcripts must be byte-identical to the uninterrupted
// serial Reference oracle at workers {1, 4, GOMAXPROCS}, two kill
// schedules each, and the whole battery runs under -race in CI.
func TestCrashRecoveryBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-recovery battery replays the demo workload many times")
	}
	kinds := recoveryKinds(t)
	streams, err := DemoStreams(kinds, 77, 6, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, ds := range streams {
		ref, err := Reference(ds.Config, ds.Data)
		if err != nil {
			t.Fatal(err)
		}
		want[ds.ID] = fmt.Sprintf("%+v", ref)
	}
	// Queue depth covers every batch a stream can ever push, so the Block
	// policy never actually blocks — a frozen (killed) stream must not
	// deadlock the pusher.
	maxBatches := 0
	for _, ds := range streams {
		if n := len(ds.Data)/16 + 2; n > maxBatches {
			maxBatches = n
		}
	}

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		// The two kill schedules per worker count are the ones the flat and
		// the since-deleted sharded cells drew, seeded by workers*31 plus
		// the length of their names ("sharded=false/workers=N" and
		// "sharded=true/workers=N").
		digits := int64(len(strconv.Itoa(workers)))
		for _, seed := range []int64{int64(workers)*31 + 22 + digits, int64(workers)*31 + 21 + digits} {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				newHub := func() *Hub {
					h, err := New(Config{Workers: workers, QueueDepth: maxBatches, Policy: Block})
					if err != nil {
						t.Fatal(err)
					}
					return h
				}

				// batches splits a stream's data into uneven chunks, the
				// same split for both phases of a stream.
				batchesOf := func(data []float64, seed int64) [][]float64 {
					r := rand.New(rand.NewSource(seed))
					var out [][]float64
					for at := 0; at < len(data); {
						n := 16 + r.Intn(48)
						if at+n > len(data) {
							n = len(data) - at
						}
						out = append(out, data[at:at+n])
						at += n
					}
					return out
				}

				// Phase A: push a random prefix, checkpoint every stream.
				h1 := newHub()
				for _, ds := range streams {
					if err := h1.Attach(ds.ID, ds.Config); err != nil {
						t.Fatal(err)
					}
				}
				allBatches := map[string][][]float64{}
				cut := map[string]int{}
				for i, ds := range streams {
					bs := batchesOf(ds.Data, int64(i)*17+3)
					allBatches[ds.ID] = bs
					cut[ds.ID] = 1 + rng.Intn(len(bs)-1)
					for _, b := range bs[:cut[ds.ID]] {
						if err := h1.Push(ds.ID, b); err != nil {
							t.Fatal(err)
						}
					}
				}
				h1.Flush()
				checkpoints := map[string][]byte{}
				watermarks := map[string]int{}
				for _, ds := range streams {
					data, err := h1.Export(ds.ID)
					if err != nil {
						t.Fatal(err)
					}
					id, pos, err := SnapshotInfo(data)
					if err != nil || id != ds.ID {
						t.Fatalf("%s: snapshot info (%q, %v)", ds.ID, id, err)
					}
					checkpoints[ds.ID] = data
					watermarks[ds.ID] = pos
				}

				// Phase B: arm the kill hook (each stream's drain dies a
				// random number of batches past the checkpoint) and keep
				// pushing. Some streams freeze mid-drain; the hub is then
				// abandoned exactly as a killed process abandons memory.
				var fuses sync.Map // id -> *int64 batches to live
				for _, ds := range streams {
					n := int64(rng.Intn(6))
					fuses.Store(ds.ID, &n)
				}
				kill := func(id string) bool {
					v, ok := fuses.Load(id)
					if !ok {
						return false
					}
					return atomic.AddInt64(v.(*int64), -1) < 0
				}
				testDrainKill.Store(&kill)
				for _, ds := range streams {
					for _, b := range allBatches[ds.ID][cut[ds.ID]:] {
						if err := h1.Push(ds.ID, b); err != nil {
							t.Fatal(err)
						}
					}
				}
				testDrainKill.Store(nil)
				// h1 is deliberately abandoned: killed streams hold running
				// drains that will never finish, so Close would hang — which
				// is the point. Recovery must need nothing from the wreck.

				// Phase C: fresh hub, restore from checkpoints, replay from
				// each watermark with overlap, every third batch pushed
				// twice. The watermark dedup absorbs both.
				h2 := newHub()
				for _, ds := range streams {
					if _, err := h2.Restore(checkpoints[ds.ID], ds.Config); err != nil {
						t.Fatalf("%s: restore: %v", ds.ID, err)
					}
				}
				for _, ds := range streams {
					wm := watermarks[ds.ID]
					from := wm - 17
					if from < 0 {
						from = 0
					}
					for at, i := from, 0; at < len(ds.Data); i++ {
						n := 16 + rng.Intn(48)
						if at+n > len(ds.Data) {
							n = len(ds.Data) - at
						}
						if err := h2.PushAt(ds.ID, at, ds.Data[at:at+n]); err != nil {
							t.Fatalf("%s: replay at %d: %v", ds.ID, at, err)
						}
						if i%3 == 0 { // duplicated delivery
							if err := h2.PushAt(ds.ID, at, ds.Data[at:at+n]); err != nil {
								t.Fatalf("%s: duplicate replay at %d: %v", ds.ID, at, err)
							}
						}
						at += n
					}
					// A positioned push past the watermark must be refused,
					// not silently accepted with a hole.
					if err := h2.PushAt(ds.ID, len(ds.Data)+100, []float64{1}); !errors.Is(err, ErrGap) {
						t.Fatalf("%s: gap push error = %v, want ErrGap", ds.ID, err)
					}
				}
				reports, err := h2.Close()
				if err != nil {
					t.Fatal(err)
				}
				if len(reports) != len(streams) {
					t.Fatalf("%d reports for %d streams", len(reports), len(streams))
				}
				total := 0
				for _, r := range reports {
					if got := fmt.Sprintf("%+v", r.Detections); got != want[r.ID] {
						t.Errorf("%s: recovered transcript != Reference\n got %s\nwant %s", r.ID, got, want[r.ID])
					}
					// Position must equal the full stream length: every point
					// applied exactly once despite the overlap and duplicates.
					if n := streamLen(allBatches[r.ID]); r.Stats.Position != n {
						t.Errorf("%s: final position %d, stream length %d", r.ID, r.Stats.Position, n)
					}
					total += len(r.Detections)
				}
				if total == 0 {
					t.Fatal("recovery battery produced no detections — the comparison is vacuous")
				}
			})
		}
	}
}

// streamLen sums a stream's batch lengths (its full data length).
func streamLen(bs [][]float64) int {
	n := 0
	for _, b := range bs {
		n += len(b)
	}
	return n
}

// TestExportIsNonDestructive pins that Export is a read: a stream
// continues after an export (even one taken under queued load) and its
// final transcript is unchanged.
func TestExportIsNonDestructive(t *testing.T) {
	kinds := recoveryKinds(t)
	streams, err := DemoStreams(kinds, 78, 3, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range streams {
		ref, err := Reference(ds.Config, ds.Data)
		if err != nil {
			t.Fatal(err)
		}
		h, err := New(Config{Workers: 2, QueueDepth: 256})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Attach(ds.ID, ds.Config); err != nil {
			t.Fatal(err)
		}
		for at := 0; at < len(ds.Data); at += 64 {
			end := at + 64
			if end > len(ds.Data) {
				end = len(ds.Data)
			}
			if err := h.Push(ds.ID, ds.Data[at:end]); err != nil {
				t.Fatal(err)
			}
			// Export mid-flight, without flushing: the pause gate must cut
			// between batches and resume the drain afterwards.
			if at == 256 || at == 768 {
				if _, err := h.Export(ds.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		reports, err := h.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%+v", reports[0].Detections), fmt.Sprintf("%+v", ref); got != want {
			t.Errorf("%s: transcript changed by mid-flight exports\n got %s\nwant %s", ds.ID, got, want)
		}
	}
}

// TestRestoreFrameEngine pins the stream frame's engine int. Export
// writes 1, the retired engine selector's eager value, so a binary that
// still has both engines reopens the stream on eager banks. Restore accepts
// 0 (the lazy frontier's value, which older default streams wrote) or 1,
// and both resume the transcript Reference gives; any other value is
// ErrBadSnapshot.
func TestRestoreFrameEngine(t *testing.T) {
	kinds := recoveryKinds(t)
	streams, err := DemoStreams(kinds, 80, 1, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	ds := streams[0]
	ref, err := Reference(ds.Config, ds.Data)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(ds.ID, ds.Config); err != nil {
		t.Fatal(err)
	}
	const cut = 600
	if err := h.Push(ds.ID, ds.Data[:cut]); err != nil {
		t.Fatal(err)
	}
	h.Flush()
	good, err := h.Export(ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
	_, ver, payload, err := snap.Decode(good)
	if err != nil {
		t.Fatal(err)
	}
	r := snap.NewReader(payload)
	id, pos, window, stride, step, engine := r.String(), r.Int(), r.Int(), r.Int(), r.Int(), r.Int()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if engine != 1 {
		t.Fatalf("exported frame engine = %d, want 1", engine)
	}
	rest := payload[len(payload)-r.Remaining():]
	withEngine := func(e int) []byte {
		var w snap.Writer
		w.String(id)
		w.Int(pos)
		w.Int(window)
		w.Int(stride)
		w.Int(step)
		w.Int(e)
		return snap.Encode(streamStateKind, ver, append(w.Bytes(), rest...))
	}
	for _, e := range []int{0, 1} {
		h2, err := New(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h2.Restore(withEngine(e), ds.Config); err != nil {
			t.Fatalf("engine %d: restore: %v", e, err)
		}
		if err := h2.PushAt(ds.ID, cut, ds.Data[cut:]); err != nil {
			t.Fatal(err)
		}
		reports, err := h2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%+v", reports[0].Detections), fmt.Sprintf("%+v", ref); got != want {
			t.Errorf("engine %d: restored transcript != Reference\n got %s\nwant %s", e, got, want)
		}
	}
	for _, e := range []int{-1, 2, 7} {
		h2, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h2.Restore(withEngine(e), ds.Config); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("engine %d: Restore error = %v, want ErrBadSnapshot", e, err)
		}
		if _, err := h2.Detections(ds.ID); !errors.Is(err, ErrUnknownStream) {
			t.Fatalf("engine %d: stream attached despite failed restore", e)
		}
	}
}

// TestRestoreRejectsCorruptSnapshots is the hub half of the
// restore-hardening battery: a real exported snapshot, hand-corrupted
// every way a disk or a bug can corrupt it, must always fail with a typed
// error — never attach, never panic.
func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	kinds := recoveryKinds(t)
	streams, err := DemoStreams(kinds, 80, 1, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	ds := streams[0]
	h, err := New(Config{Workers: 1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(ds.ID, ds.Config); err != nil {
		t.Fatal(err)
	}
	if err := h.Push(ds.ID, ds.Data[:600]); err != nil {
		t.Fatal(err)
	}
	h.Flush()
	good, err := h.Export(ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, _, payload, err := snap.Decode(good)
	if err != nil {
		t.Fatal(err)
	}

	otherKind := kinds[0]
	if otherKind.Name == ds.Kind {
		otherKind = kinds[1]
	}

	fresh := func() *Hub {
		h2, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		return h2
	}
	cases := []struct {
		name string
		data []byte
		sc   StreamConfig
		want error // nil = any non-nil error accepted
	}{
		{"empty", nil, ds.Config, snap.ErrTruncated},
		{"bad magic", append([]byte("JUNK"), good[4:]...), ds.Config, snap.ErrBadMagic},
		{"wrong kind", snap.Encode("etsc-checkpoint", 1, payload), ds.Config, snap.ErrCorrupt},
		{"future version", snap.Encode("etsc-stream-state", 99, payload), ds.Config, snap.ErrVersion},
		{"no classifier", good, StreamConfig{}, ErrBadSnapshot},
		{"wrong classifier window", good, otherKind.Config, ErrBadSnapshot},
		{"verifier mismatch", good, StreamConfig{Classifier: ds.Config.Classifier,
			Verifier: nil}, func() error {
			if ds.Config.Verifier != nil {
				return ErrBadSnapshot
			}
			return nil
		}()},
	}
	for _, tc := range cases {
		if tc.name == "verifier mismatch" && tc.want == nil {
			continue // this kind has no verifier; the case is covered by another kind
		}
		t.Run(tc.name, func(t *testing.T) {
			h2 := fresh()
			if _, err := h2.Restore(tc.data, tc.sc); !errors.Is(err, tc.want) {
				t.Fatalf("Restore(%s) error = %v, want %v", tc.name, err, tc.want)
			}
			if _, err := h2.Detections(ds.ID); !errors.Is(err, ErrUnknownStream) {
				t.Fatalf("stream attached despite failed restore")
			}
		})
	}

	// Torn files: every truncation of the frame must fail (CRC or
	// truncated), and every single corrupted byte must fail (CRC covers
	// the whole frame). The sweep asserts the error path, panics fail the
	// test on their own.
	for cut := 0; cut < len(good); cut += 7 {
		h2 := fresh()
		if _, err := h2.Restore(good[:cut], ds.Config); err == nil {
			t.Fatalf("restore of %d/%d-byte torn snapshot succeeded", cut, len(good))
		}
	}
	for i := 0; i < len(good); i += 11 {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x3C
		h2 := fresh()
		if _, err := h2.Restore(bad, ds.Config); err == nil {
			t.Fatalf("restore with byte %d corrupted succeeded", i)
		}
	}

	// Duplicate attach: restoring over a live stream is refused.
	if _, err := h.Restore(good, ds.Config); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate restore error = %v, want ErrDuplicate", err)
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// outsideClassifier is an IncrementalClassifier defined outside package
// etsc, as etsc.Register lets a deployment add: its session type is one
// package etsc has never seen.
type outsideClassifier struct{ etsc.EarlyClassifier }

func (c outsideClassifier) NewIncrementalSession() etsc.IncrementalSession {
	return &outsideSession{inner: etsc.OpenSession(c.EarlyClassifier)}
}

type outsideSession struct{ inner etsc.IncrementalSession }

func (s *outsideSession) Extend(points []float64) etsc.Decision { return s.inner.Extend(points) }

// within runs f and fails the test if f panics or has not returned after
// ten seconds. A call that never returns is left running, so a hang fails
// this test instead of the whole binary's timeout.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case p := <-done:
		if p != nil {
			t.Errorf("%s panicked: %v", what, p)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return within 10s", what)
	}
}

// TestExportRestoreOutsideSession checkpoints a stream whose classifier's
// session type is defined outside package etsc. Export must succeed and
// leave the stream draining, and a fresh hub that restores the frame and
// takes the rest of the stream through PushAt must end on Reference's
// transcript.
func TestExportRestoreOutsideSession(t *testing.T) {
	streams, err := DemoStreams(recoveryKinds(t), 81, 1, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	ds := streams[0]
	cfg := ds.Config
	cfg.Classifier = outsideClassifier{ds.Config.Classifier}
	ref, err := Reference(cfg, ds.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("Reference fires nothing; the comparison is vacuous")
	}
	want := fmt.Sprintf("%+v", ref)
	const cut = 1_000

	h, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(ds.ID, cfg); err != nil {
		t.Fatal(err)
	}
	if err := h.Push(ds.ID, ds.Data[:cut]); err != nil {
		t.Fatal(err)
	}
	within(t, "Flush", h.Flush)
	var frame []byte
	within(t, "Export", func() {
		if frame, err = h.Export(ds.ID); err != nil {
			t.Errorf("Export: %v", err)
		}
	})
	// The exporting stream must keep draining after the export.
	if err := h.Push(ds.ID, ds.Data[cut:]); err != nil {
		t.Fatal(err)
	}
	within(t, "Flush after Export", h.Flush)
	var reports []StreamReport
	within(t, "Close", func() { reports, err = h.Close() })
	if err != nil || len(reports) != 1 {
		t.Fatalf("Close: %d reports, %v", len(reports), err)
	}
	if got := fmt.Sprintf("%+v", reports[0].Detections); got != want {
		t.Errorf("exporting hub's transcript != Reference\n got %s\nwant %s", got, want)
	}
	if frame == nil {
		t.FailNow()
	}

	h2, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Restore(frame, cfg); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := h2.PushAt(ds.ID, cut, ds.Data[cut:]); err != nil {
		t.Fatal(err)
	}
	within(t, "Close after restore", func() { reports, err = h2.Close() })
	if err != nil || len(reports) != 1 {
		t.Fatalf("Close after restore: %d reports, %v", len(reports), err)
	}
	if got := fmt.Sprintf("%+v", reports[0].Detections); got != want {
		t.Errorf("restored transcript != Reference\n got %s\nwant %s", got, want)
	}
}

// TestRestoreRejectsFarPositions pins the bound on a restored position. A
// frame is outside input (POST /v1/streams/{id}/snapshot takes a client's,
// CRC and all), and /v1 reports positions as JSON numbers, exact up to
// 2^53: a frame above that fails with ErrCorrupt and attaches nothing,
// instead of replaying into index arithmetic that wraps. A frame at 2^53
// itself restores.
func TestRestoreRejectsFarPositions(t *testing.T) {
	streams, err := DemoStreams(recoveryKinds(t), 82, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	sc := StreamConfig{Classifier: streams[0].Config.Classifier}
	window := sc.Classifier.FullLength()
	// frameAt writes a version-2 frame, field by field, for a stream
	// without a verifier or detections at position pos.
	frameAt := func(pos int) []byte {
		var w snap.Writer
		w.String("far")
		w.Int(pos)
		w.Int(window)
		w.Int(4) // stride
		w.Int(4) // step
		w.Int(frameEngine)
		w.Int(0)      // suppression radius
		w.Bool(false) // verifier
		for i := 0; i < 6; i++ {
			w.Int64(0) // batch, point, drop and shed counters
		}
		w.Int(0)      // recanted
		w.Int(0)      // detections
		w.Ints(nil)   // pending verifications
		w.Int(0)      // settled boundary
		w.Int(0)      // tail start
		w.Floats(nil) // tail
		w.Int(0)      // suppressor entries
		w.Int(pos)    // monitor position
		w.Int(pos - (window - 1))
		w.Floats(make([]float64, window-1))
		return snap.Encode(streamStateKind, streamStateVersion, w.Bytes())
	}
	for _, pos := range []int{math.MaxInt - 3, 1<<53 + 1} {
		h, err := New(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var rerr error
		within(t, fmt.Sprintf("Restore at %d", pos), func() { _, rerr = h.Restore(frameAt(pos), sc) })
		if !errors.Is(rerr, snap.ErrCorrupt) {
			t.Errorf("Restore at %d: error %v, want ErrCorrupt", pos, rerr)
		}
		if _, err := h.Detections("far"); !errors.Is(err, ErrUnknownStream) {
			t.Errorf("Restore at %d attached the stream", pos)
		}
	}
	h, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Restore(frameAt(1<<53), sc); err != nil {
		t.Fatalf("Restore at 2^53: %v", err)
	}
	if got := h.Snapshot()["far"].Position; got != 1<<53 {
		t.Fatalf("restored at %d, want 2^53", got)
	}
}
