package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/serve"
	"etsc/internal/serve/servetest"
	"etsc/internal/snap"
)

// pushRange pushes data[from:to] to id in fixed-size batches through the
// typed client, positioned when at >= 0.
func pushRange(t *testing.T, c *client.Client, id string, data []float64, from, to int, positioned bool) {
	t.Helper()
	ctx := context.Background()
	for at := from; at < to; at += 100 {
		end := at + 100
		if end > to {
			end = to
		}
		var err error
		if positioned {
			_, err = c.PushAt(ctx, id, at, data[at:end])
		} else {
			_, err = c.Push(ctx, id, data[at:end])
		}
		if err != nil {
			t.Fatalf("push %s at %d: %v", id, at, err)
		}
	}
}

// TestSnapshotEndpointRoundTrip is the wire-level half of the durable
// state proof: two streams of the same kind get the same telemetry, one
// is snapshotted mid-stream over HTTP, deleted, restored from the
// snapshot, and replayed with overlap — and the two final transcripts
// are identical.
func TestSnapshotEndpointRoundTrip(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	ts := servetest.New(t, hub.Config{Workers: 2}, kinds)
	streams, err := hub.DemoStreams(kinds, 5, 1, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	ds := streams[0]
	ctx := context.Background()
	c := ts.Client
	for _, id := range []string{"twin-a", "twin-b"} {
		if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: id, Kind: ds.Kind}); err != nil {
			t.Fatal(err)
		}
	}
	pushRange(t, c, "twin-a", ds.Data, 0, len(ds.Data), false)
	half := len(ds.Data) / 2
	pushRange(t, c, "twin-b", ds.Data, 0, half, false)
	ts.Flush()

	snapB, err := c.SnapshotStream(ctx, "twin-b")
	if err != nil {
		t.Fatal(err)
	}
	if snapB.ID != "twin-b" || snapB.Kind != ds.Kind || snapB.Position != half || snapB.Engine != "eager" {
		t.Fatalf("snapshot = {id %q kind %q pos %d engine %q}, want {twin-b %s %d eager}",
			snapB.ID, snapB.Kind, snapB.Position, snapB.Engine, ds.Kind, half)
	}
	// Restoring over the still-live stream must conflict, not clobber.
	_, err = c.RestoreStream(ctx, snapB)
	servetest.APIErrOf(t, err, http.StatusConflict, client.CodeDuplicateStream)

	if _, err := c.DeleteStream(ctx, "twin-b"); err != nil {
		t.Fatal(err)
	}
	// A snapshot body naming the retired "pruned" engine still restores,
	// and the stream reports the one engine.
	snapB.Engine = "pruned"
	info, err := c.RestoreStream(ctx, snapB)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if info.Stats.Position != half || info.Kind != ds.Kind || info.Engine != "eager" {
		t.Fatalf("restored info = {kind %q pos %d engine %q}, want {%s %d eager}",
			info.Kind, info.Stats.Position, info.Engine, ds.Kind, half)
	}

	// Replay from before the watermark (the overlap must be skipped, not
	// double-applied), then the rest of the stream.
	from := half - 37
	if from < 0 {
		from = 0
	}
	pushRange(t, c, "twin-b", ds.Data, from, len(ds.Data), true)
	// A positioned push beyond the watermark is a refused gap.
	_, err = c.PushAt(ctx, "twin-b", len(ds.Data)+50, []float64{1})
	servetest.APIErrOf(t, err, http.StatusConflict, client.CodeGap)
	ts.Flush()

	ra, err := c.DeleteStream(ctx, "twin-a")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.DeleteStream(ctx, "twin-b")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", rb.Detections), fmt.Sprintf("%+v", ra.Detections); got != want {
		t.Errorf("restored transcript != uninterrupted twin\n got %s\nwant %s", got, want)
	}
	if rb.Stats.Position != len(ds.Data) {
		t.Errorf("restored stream position %d, want %d", rb.Stats.Position, len(ds.Data))
	}
	ts.CloseHub(t)
}

// TestSnapshotEndpointRejectsCorruption drives the restore endpoint with
// corrupted and mismatched snapshots: every failure is a structured
// {"error":{code,...}} — bad_snapshot for state-level damage — and
// nothing attaches.
func TestSnapshotEndpointRejectsCorruption(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	ts := servetest.New(t, hub.Config{Workers: 2}, kinds)
	streams, err := hub.DemoStreams(kinds, 7, 1, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	ds := streams[0]
	ctx := context.Background()
	c := ts.Client
	if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: "s", Kind: ds.Kind}); err != nil {
		t.Fatal(err)
	}
	pushRange(t, c, "s", ds.Data, 0, 1_000, false)
	ts.Flush()
	good, err := c.SnapshotStream(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteStream(ctx, "s"); err != nil {
		t.Fatal(err)
	}

	t.Run("corrupt state bytes", func(t *testing.T) {
		for _, i := range []int{0, 4, len(good.State) / 2, len(good.State) - 1} {
			bad := good
			bad.State = append([]byte(nil), good.State...)
			bad.State[i] ^= 0x40
			_, err := c.RestoreStream(ctx, bad)
			servetest.APIErrOf(t, err, http.StatusBadRequest, client.CodeBadSnapshot)
		}
	})
	t.Run("truncated state", func(t *testing.T) {
		for _, cut := range []int{0, 1, 7, len(good.State) / 2, len(good.State) - 1} {
			bad := good
			bad.State = good.State[:cut]
			_, err := c.RestoreStream(ctx, bad)
			servetest.APIErrOf(t, err, http.StatusBadRequest, client.CodeBadSnapshot)
		}
	})
	t.Run("state for another stream", func(t *testing.T) {
		bad := good
		bad.ID = "someone-else"
		_, err := c.RestoreStream(ctx, bad)
		servetest.APIErrOf(t, err, http.StatusBadRequest, client.CodeBadSnapshot)
	})
	t.Run("unknown kind", func(t *testing.T) {
		bad := good
		bad.Kind = "no-such-kind"
		_, err := c.RestoreStream(ctx, bad)
		servetest.APIErrOf(t, err, http.StatusBadRequest, client.CodeUnknownKind)
	})
	t.Run("negative positioned push", func(t *testing.T) {
		status, body := servetest.RawStatus(t, http.MethodPost, ts.HTTP.URL+"/v1/streams/s/push",
			`{"points":[1],"at":-3}`)
		if status != http.StatusBadRequest || servetest.EnvelopeCode(t, body) != client.CodeBadRequest {
			t.Fatalf("at=-3 push: status %d body %s", status, body)
		}
	})

	// After the whole corruption battery, nothing is attached...
	if infos, err := c.Streams(ctx); err != nil || len(infos) != 0 {
		t.Fatalf("streams after corruption battery: %v, %v", infos, err)
	}
	// ...and the untouched snapshot still restores cleanly.
	if _, err := c.RestoreStream(ctx, good); err != nil {
		t.Fatalf("good snapshot after battery: %v", err)
	}
	ts.CloseHub(t)
}

// TestCheckpointBootRestore is the boot-path proof: a checkpoint
// generation taken from a live server restores every stream at its
// watermark on a fresh server, replay completes the streams, and a
// directory full of torn/corrupt files degrades to counted fallbacks and
// skips — never a failed boot.
func TestCheckpointBootRestore(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	dir := t.TempDir()
	ts1 := servetest.New(t, hub.Config{Workers: 2}, kinds)
	streams, err := hub.DemoStreams(kinds, 6, 3, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	marks := map[string]int{}
	for _, ds := range streams {
		if _, err := ts1.Client.CreateStream(ctx, client.CreateStreamRequest{ID: ds.ID, Kind: ds.Kind}); err != nil {
			t.Fatal(err)
		}
		n := len(ds.Data) * 3 / 5
		pushRange(t, ts1.Client, ds.ID, ds.Data, 0, n, false)
		marks[ds.ID] = n
	}
	ts1.Flush()
	cp, err := serve.NewCheckpointer(ts1.Srv, dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cp.SetLogf(t.Logf)
	if err := cp.Sync(); err != nil {
		t.Fatal(err)
	}
	// ts1 is now "killed": abandoned without shutdown. The checkpoint
	// files are all the next boot gets.

	ts2 := servetest.New(t, hub.Config{Workers: 2}, kinds)
	st, err := ts2.Srv.RestoreFromDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != len(streams) || st.Fallbacks != 0 || st.Skipped != 0 {
		t.Fatalf("restore stats %+v, want {Restored:%d}", st, len(streams))
	}
	for _, ds := range streams {
		info, err := ts2.Client.Stream(ctx, ds.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.Stats.Position != marks[ds.ID] || info.Kind != ds.Kind {
			t.Fatalf("%s restored at {kind %q pos %d}, want {%s %d}",
				ds.ID, info.Kind, info.Stats.Position, ds.Kind, marks[ds.ID])
		}
		// Replay from (before) the watermark to the end; the stream must
		// finish at full length.
		from := marks[ds.ID] - 23
		if from < 0 {
			from = 0
		}
		pushRange(t, ts2.Client, ds.ID, ds.Data, from, len(ds.Data), true)
	}
	ts2.Flush()
	for _, ds := range streams {
		info, err := ts2.Client.Stream(ctx, ds.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.Stats.Position != len(ds.Data) {
			t.Fatalf("%s finished at %d, want %d", ds.ID, info.Stats.Position, len(ds.Data))
		}
	}
	ts2.CloseHub(t)

	// The chaos half: torn prefixes, flipped bytes, junk, and an
	// outer-valid/inner-corrupt frame, all next to one good file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var goodFrame []byte
	var goodName string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			goodName = e.Name()
			if goodFrame, err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if goodFrame == nil {
		t.Fatal("no checkpoint files written")
	}
	dir2 := t.TempDir()
	write := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir2, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(goodName, goodFrame)
	write("torn-a.ckpt", goodFrame[:len(goodFrame)/3])
	write("torn-b.ckpt", goodFrame[:len(goodFrame)-2])
	flipped := append([]byte(nil), goodFrame...)
	flipped[len(flipped)/2] ^= 0x10
	write("flipped.ckpt", flipped)
	write("junk.ckpt", []byte("not a checkpoint at all"))
	// Outer CRC valid, embedded hub state damaged: the case that must
	// degrade to a fresh-start fallback rather than a skip.
	write("innerbad.ckpt", reframe(t, goodFrame, func(m *serve.CheckpointMeta) { m.State[len(m.State)/2] ^= 0x20 }))

	ts3 := servetest.New(t, hub.Config{Workers: 2}, kinds)
	st3, err := ts3.Srv.RestoreFromDir(dir2, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	// The good file and the inner-corrupt file name the same stream; file
	// order is sorted, so the flipped/good/innerbad contention is
	// deterministic: whichever valid-outer frame comes first wins the id,
	// the later one is a duplicate skip. Pin the aggregate shape.
	if st3.Restored+st3.Fallbacks != 1 || st3.Skipped != 5 {
		t.Fatalf("chaos restore stats %+v, want exactly one live outcome and 5 skips", st3)
	}
	infos, err := ts3.Client.Streams(ctx)
	if err != nil || len(infos) != 1 {
		t.Fatalf("streams after chaos boot: %v, %v", infos, err)
	}
	ts3.CloseHub(t)
}

// reframe rebuilds a checkpoint frame, with a valid outer CRC, after edit
// has changed its decoded fields.
func reframe(t *testing.T, frame []byte, edit func(*serve.CheckpointMeta)) []byte {
	t.Helper()
	kind, ver, _, err := snap.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	m, err := serve.DecodeCheckpoint(frame)
	if err != nil {
		t.Fatal(err)
	}
	m.State = append([]byte(nil), m.State...)
	edit(&m)
	var w snap.Writer
	w.String(m.ID)
	w.String(m.Kind)
	w.String(m.Spec)
	w.String(m.Engine)
	w.Blob(m.State)
	return snap.Encode(kind, ver, w.Bytes())
}

// TestKindSpecResolution pins the one (kind, spec) resolution behind
// create, snapshot restore and boot restore: for each registration the
// three report the same kind and spec, or create and snapshot restore
// refuse it with the same status and code and RestoreFromDir skips it.
func TestKindSpecResolution(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	ts := servetest.New(t, hub.Config{Workers: 1}, kinds)
	c := ts.Client
	ctx := context.Background()
	var own string
	for _, k := range kinds {
		if k.Name == "chicken" {
			own = k.Spec.String()
		}
	}
	const other = "probthreshold:threshold=0.95,minprefix=12"

	// A fresh chicken stream's state restores under any spec trained on
	// the chicken dataset: its window is the dataset's series length.
	const id = "coop"
	if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: id, Kind: "chicken"}); err != nil {
		t.Fatal(err)
	}
	snapshot, err := c.SnapshotStream(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := ts.Srv.ExportCheckpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteStream(ctx, id); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, kind, spec string
		wantSpec         string           // accepted: the spec every path reports
		code             client.ErrorCode // refused: the code create and restore answer
	}{
		{name: "kind only", kind: "chicken", wantSpec: own},
		{name: "own spec", kind: "chicken", spec: own, wantSpec: own},
		{name: "other spec", kind: "chicken", spec: other, wantSpec: other},
		{name: "unknown kind", kind: "turkey", code: client.CodeUnknownKind},
		{name: "bad spec", kind: "chicken", spec: "nosuchalgo:x=1", code: client.CodeBadSpec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Each path attaches the one stream id the state frame names,
			// so each detaches it before the next runs.
			var infos []client.StreamInfo
			detach := func() {
				t.Helper()
				info, err := c.Stream(ctx, id)
				if err != nil {
					t.Fatal(err)
				}
				infos = append(infos, info)
				if _, err := c.DeleteStream(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			_, createErr := c.CreateStream(ctx, client.CreateStreamRequest{ID: id, Kind: tc.kind, Spec: tc.spec})
			if createErr == nil {
				detach()
			}
			_, restoreErr := c.RestoreStream(ctx, client.StreamSnapshot{
				ID: id, Kind: tc.kind, Spec: tc.spec, Position: snapshot.Position, State: snapshot.State,
			})
			if restoreErr == nil {
				detach()
			}
			dir := t.TempDir()
			ckpt := reframe(t, frame, func(m *serve.CheckpointMeta) { m.Kind, m.Spec = tc.kind, tc.spec })
			if err := os.WriteFile(filepath.Join(dir, id+".ckpt"), ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := ts.Srv.RestoreFromDir(dir, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if st.Restored == 1 {
				detach()
			}

			if tc.code != "" {
				servetest.APIErrOf(t, createErr, http.StatusBadRequest, tc.code)
				servetest.APIErrOf(t, restoreErr, http.StatusBadRequest, tc.code)
				if st != (serve.RestoreStats{Skipped: 1}) {
					t.Errorf("boot restore %+v, want one skip", st)
				}
				return
			}
			if createErr != nil || restoreErr != nil || st != (serve.RestoreStats{Restored: 1}) {
				t.Fatalf("create %v, snapshot restore %v, boot restore %+v: want all three accepted", createErr, restoreErr, st)
			}
			for i, info := range infos {
				if info.Kind != "chicken" || info.Spec != tc.wantSpec {
					t.Errorf("path %d reports {kind %q spec %q}, want {chicken %q}", i, info.Kind, info.Spec, tc.wantSpec)
				}
			}
		})
	}
	ts.CloseHub(t)
}

// TestShutdownRebootResume pins the clean-shutdown contract: a final
// checkpoint generation written after the last flush restores on the
// next boot at exactly the drained position — zero replay — with the
// settled transcript intact.
func TestShutdownRebootResume(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	dir := t.TempDir()
	ts1 := servetest.New(t, hub.Config{Workers: 2}, kinds)
	streams, err := hub.DemoStreams(kinds, 8, 2, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, ds := range streams {
		if _, err := ts1.Client.CreateStream(ctx, client.CreateStreamRequest{ID: ds.ID, Kind: ds.Kind}); err != nil {
			t.Fatal(err)
		}
		pushRange(t, ts1.Client, ds.ID, ds.Data, 0, len(ds.Data), false)
	}
	// The etsc-serve shutdown order: drain, then the final generation.
	ts1.Flush()
	cp, err := serve.NewCheckpointer(ts1.Srv, dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cp.SetLogf(t.Logf)
	if err := cp.Sync(); err != nil {
		t.Fatal(err)
	}
	pages := map[string]string{}
	for _, ds := range streams {
		page, err := ts1.Client.Detections(ctx, ds.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		pages[ds.ID] = fmt.Sprintf("%+v", page.Detections)
	}
	ts1.CloseHub(t)

	ts2 := servetest.New(t, hub.Config{Workers: 2}, kinds)
	st, err := ts2.Srv.RestoreFromDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != len(streams) || st.Fallbacks+st.Skipped != 0 {
		t.Fatalf("restore stats %+v, want {Restored:%d}", st, len(streams))
	}
	for _, ds := range streams {
		info, err := ts2.Client.Stream(ctx, ds.ID)
		if err != nil {
			t.Fatal(err)
		}
		// Zero replay: the restored watermark is the full drained length.
		if info.Stats.Position != len(ds.Data) {
			t.Fatalf("%s restored at %d, want %d (zero replay)", ds.ID, info.Stats.Position, len(ds.Data))
		}
		page, err := ts2.Client.Detections(ctx, ds.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", page.Detections); got != pages[ds.ID] {
			t.Errorf("%s settled transcript changed across reboot\n got %s\nwant %s", ds.ID, got, pages[ds.ID])
		}
		// The resumed stream is live: more telemetry still flows.
		if _, err := ts2.Client.Push(ctx, ds.ID, ds.Data[:64]); err != nil {
			t.Fatal(err)
		}
	}
	ts2.CloseHub(t)
}
