package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/serve/servetest"
	"etsc/internal/stream"
)

// detJSON renders a detection transcript as one JSON array — the
// byte-for-byte comparison unit for watch-vs-cursor equivalence.
func detJSON(t testing.TB, dets []stream.Detection) string {
	t.Helper()
	raw, err := json.Marshal(dets)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// watcherState coordinates a reconnecting watcher with the goroutine that
// will eventually DELETE the stream, closing the reconnect-vs-delete race:
// the watcher publishes its cursor only AFTER any forced reconnect for that
// frame has completed, and checks stop before tearing a connection down. A
// deleter that (1) waits for cursor == settled, (2) sets stop, (3) then
// deletes can never strand the watcher mid-reconnect against a gone stream.
type watcherState struct {
	cursor atomic.Int64
	stop   atomic.Bool
	// pause, when set, runs after each delivered frame with the number of
	// frames delivered so far: the soak battery's slow and stalled
	// consumers. It is set before the watcher starts.
	pause func(delivered int)
}

// await blocks until the watcher has delivered (and finished reconnecting
// past) at least n frames, then forbids further forced reconnects.
func (st *watcherState) await(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for st.cursor.Load() < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("watcher stuck at cursor %d, want %d", st.cursor.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	st.stop.Store(true)
}

// watchTranscript subscribes to id over HTTP and collects the full feed,
// forcing a reconnect (tear the connection down, resume at the frame
// cursor) after every reconnectEvery detection frames while st permits it.
// It verifies frame indices are strictly sequential from the start cursor
// and returns the delivered detections.
func watchTranscript(t *testing.T, c *client.Client, id string, reconnectEvery int, st *watcherState) []stream.Detection {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var out []stream.Detection
	next := 0
	sinceReconnect := 0
	ws, err := c.Watch(ctx, id, next)
	if err != nil {
		t.Errorf("watch %s: %v", id, err)
		return nil
	}
	defer func() {
		if ws != nil {
			ws.Close()
		}
	}()
	for {
		f, err := ws.Next()
		if err != nil {
			t.Errorf("watch %s: frame error before final: %v", id, err)
			return out
		}
		if f.Final {
			if f.Next != next {
				t.Errorf("watch %s: final frame next=%d, cursor %d", id, f.Next, next)
			}
			return out
		}
		if f.Detection == nil || f.Index != next || f.Next != next+1 {
			t.Errorf("watch %s: frame %+v out of sequence (cursor %d)", id, f, next)
			return out
		}
		out = append(out, *f.Detection)
		next = f.Next
		if st.pause != nil {
			st.pause(len(out))
		}
		sinceReconnect++
		if reconnectEvery > 0 && sinceReconnect >= reconnectEvery && !st.stop.Load() {
			sinceReconnect = 0
			ws.Close()
			ws, err = c.Watch(ctx, id, next)
			if err != nil {
				t.Errorf("watch %s: reconnect at %d: %v", id, next, err)
				return out
			}
		}
		st.cursor.Store(int64(next)) // publish only after the reconnect settled
	}
}

// runWatchEquivalence drives the full battery over one server stack: per
// stream, a live watcher (with forced mid-stream reconnects) and a
// concurrent cursor poller consume the feed while batches push, and every
// transcript — subscription, paged, final report — must be byte-identical
// to each other and to the serial hub.Reference oracle.
func runWatchEquivalence(t *testing.T, srv *servetest.TestServer, kinds []hub.Kind, seed int64, nStreams int) {
	t.Helper()
	c := srv.Client
	ctx := context.Background()
	gens, err := hub.DemoStreams(kinds, seed, nStreams, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gens {
		if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: g.ID, Kind: kinds[i%len(kinds)].Name}); err != nil {
			t.Fatalf("create %s: %v", g.ID, err)
		}
	}

	// Live consumers: one reconnecting watcher and one cursor poller per
	// stream, both racing the pushes.
	watchOut := make(map[string]chan []stream.Detection, len(gens))
	watchSt := make(map[string]*watcherState, len(gens))
	pollOut := make(map[string]chan []stream.Detection, len(gens))
	pollCtx, stopPolls := context.WithCancel(ctx)
	defer stopPolls()
	for _, g := range gens {
		wch := make(chan []stream.Detection, 1)
		watchOut[g.ID] = wch
		st := &watcherState{}
		watchSt[g.ID] = st
		go func(id string) {
			wch <- watchTranscript(t, c, id, 2, st)
		}(g.ID)
		pch := make(chan []stream.Detection, 1)
		pollOut[g.ID] = pch
		go func(id string) {
			var dets []stream.Detection
			for {
				page, err := c.Detections(ctx, id, len(dets))
				if err != nil {
					pch <- dets // stream deleted; transcript is whatever settled
					return
				}
				dets = append(dets, page.Detections...)
				select {
				case <-pollCtx.Done():
					pch <- dets
					return
				case <-time.After(2 * time.Millisecond):
				}
			}
		}(g.ID)
	}

	for _, g := range gens {
		for off := 0; off < len(g.Data); off += 80 {
			end := min(off+80, len(g.Data))
			if _, err := c.Push(ctx, g.ID, g.Data[off:end]); err != nil {
				t.Fatalf("push %s: %v", g.ID, err)
			}
		}
	}
	srv.Flush()

	transcripts := make(map[string][]stream.Detection, len(gens))
	for i, g := range gens {
		// Paged transcript after quiescence: the settled prefix in one page.
		page, err := c.Detections(ctx, g.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Handshake before DELETE: the watcher must be caught up to the
		// settled prefix and done reconnecting, so the final frames land on a
		// live connection.
		watchSt[g.ID].await(t, page.Next)
		rep, err := c.DeleteStream(ctx, g.ID)
		if err != nil {
			t.Fatalf("delete %s: %v", g.ID, err)
		}
		watched := <-watchOut[g.ID]
		transcripts[g.ID] = watched
		want, err := hub.Reference(kinds[i%len(kinds)].Config, g.Data)
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := detJSON(t, watched), detJSON(t, want); got != exp {
			t.Errorf("%s: watch transcript != Reference:\n got %s\nwant %s", g.ID, got, exp)
		}
		if got, exp := detJSON(t, watched), detJSON(t, rep.Detections); got != exp {
			t.Errorf("%s: watch transcript != final report", g.ID)
		}
		// The pre-delete page is a byte-identical prefix of the watch feed.
		if got, exp := detJSON(t, watched[:len(page.Detections)]), detJSON(t, page.Detections); got != exp {
			t.Errorf("%s: paged settled prefix != watch prefix:\n got %s\nwant %s", g.ID, exp, got)
		}
	}
	stopPolls()
	for _, g := range gens {
		// The concurrent poller stopped at an arbitrary cursor (or at stream
		// deletion); whatever it saw must be a byte-identical prefix of the
		// subscription transcript — same order, nothing skipped or invented.
		polled := <-pollOut[g.ID]
		watched := transcripts[g.ID]
		if len(polled) > len(watched) {
			t.Errorf("%s: poller saw %d detections, watch only %d", g.ID, len(polled), len(watched))
			continue
		}
		if got, exp := detJSON(t, polled), detJSON(t, watched[:len(polled)]); got != exp {
			t.Errorf("%s: concurrent cursor transcript != watch prefix:\n got %s\nwant %s", g.ID, got, exp)
		}
	}
}

// TestWatchCursorEquivalence is the tentpole battery: hubs at workers
// {1, 4, GOMAXPROCS}, each stream consumed live by a reconnecting SSE
// watcher and a concurrent cursor poller while batches push, all
// transcripts byte-identical to the Reference oracle. Each cell runs the
// workloads of two seeds (67 was the since-deleted sharded cells' seed).
func TestWatchCursorEquivalence(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("flat-w%d", workers), func(t *testing.T) {
			for _, seed := range []int64{61, 67} {
				srv := servetest.New(t, hub.Config{Workers: workers}, kinds)
				runWatchEquivalence(t, srv, kinds, seed, 4)
				srv.CloseHub(t)
			}
		})
	}
}

// TestConcurrentCursorAndWatchIdentical pins satellite coverage: a cursor
// poller and a watcher consuming the same stream concurrently see the
// identical transcript (the poller's final pass runs after quiescence, so
// both observe the complete settled prefix).
func TestConcurrentCursorAndWatchIdentical(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	srv := servetest.New(t, hub.Config{Workers: 4}, kinds)
	c := srv.Client
	ctx := context.Background()
	gens, err := hub.DemoStreams(kinds, 71, 1, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	g := gens[0]
	if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: g.ID, Kind: g.Kind}); err != nil {
		t.Fatal(err)
	}
	wch := make(chan []stream.Detection, 1)
	wst := &watcherState{}
	go func() { wch <- watchTranscript(t, c, g.ID, 3, wst) }()

	var polled []stream.Detection
	pollDone := make(chan struct{})
	pollStop := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			page, err := c.Detections(ctx, g.ID, len(polled))
			if err != nil {
				return
			}
			polled = append(polled, page.Detections...)
			select {
			case <-pollStop:
				// One final pass after quiescence so the poller observes the
				// full settled prefix, then exit.
				page, err := c.Detections(ctx, g.ID, len(polled))
				if err == nil {
					polled = append(polled, page.Detections...)
				}
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	for off := 0; off < len(g.Data); off += 64 {
		end := min(off+64, len(g.Data))
		if _, err := c.Push(ctx, g.ID, g.Data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	srv.Flush()
	close(pollStop)
	<-pollDone

	settled, err := c.Detections(ctx, g.ID, 1_000_000_000) // clamped: Next == settled
	if err != nil {
		t.Fatal(err)
	}
	wst.await(t, settled.Next)
	rep, err := c.DeleteStream(ctx, g.ID)
	if err != nil {
		t.Fatal(err)
	}
	watched := <-wch
	if got, exp := detJSON(t, watched), detJSON(t, rep.Detections); got != exp {
		t.Errorf("watch transcript != final report:\n got %s\nwant %s", got, exp)
	}
	// The poller saw everything settled at quiescence; the watch feed's
	// prefix of that length must be byte-identical.
	if got, exp := detJSON(t, watched[:len(polled)]), detJSON(t, polled); got != exp {
		t.Errorf("concurrent cursor transcript != watch prefix:\n got %s\nwant %s", exp, got)
	}
	srv.CloseHub(t)
}

// TestDeleteUnderWatch is the satellite regression: DELETE /v1/streams/{id}
// with a live SSE watcher attached must terminate the subscription with a
// clean Final frame (followed by EOF), not a hung connection.
func TestDeleteUnderWatch(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	srv := servetest.New(t, hub.Config{Workers: 2}, kinds)
	c := srv.Client
	ctx := context.Background()
	if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: "doomed", Kind: kinds[0].Name}); err != nil {
		t.Fatal(err)
	}
	ws, err := c.Watch(ctx, "doomed", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()

	type result struct {
		frames []client.WatchFrame
		err    error
	}
	done := make(chan result, 1)
	go func() {
		var frames []client.WatchFrame
		for {
			f, err := ws.Next()
			if err != nil {
				done <- result{frames, err}
				return
			}
			frames = append(frames, f)
			if f.Final {
				// Feed must end cleanly right after the final frame.
				_, err := ws.Next()
				done <- result{frames, err}
				return
			}
		}
	}()

	// Let the subscription attach, then delete out from under it.
	time.Sleep(20 * time.Millisecond)
	if _, err := c.DeleteStream(ctx, "doomed"); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if len(res.frames) == 0 || !res.frames[len(res.frames)-1].Final {
			t.Fatalf("watcher ended without a Final frame: %+v", res.frames)
		}
		if !errors.Is(res.err, io.EOF) {
			t.Errorf("after Final frame: err = %v, want io.EOF", res.err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("watcher hung after DELETE — no Final frame")
	}
	srv.CloseHub(t)
}

// TestCursorEdgeCases pins the satellite cursor behaviours: ?since= far
// beyond the settled prefix clamps (empty page at the settled boundary,
// nothing skipped, no error), Last-Event-ID: MaxInt replays nothing, and
// a detections page immediately after hub.Close is a clean structured
// 404 — the stream set is empty, not wedged.
func TestCursorEdgeCases(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	srv := servetest.New(t, hub.Config{Workers: 2}, kinds)
	c := srv.Client
	ctx := context.Background()
	gens, err := hub.DemoStreams(kinds, 73, 2, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	g := gens[0]
	if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: g.ID, Kind: g.Kind}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(ctx, g.ID, g.Data); err != nil {
		t.Fatal(err)
	}
	srv.Flush()

	base, err := c.Detections(ctx, g.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Far-overshot cursor: clamped to the settled boundary.
	far, err := c.Detections(ctx, g.ID, 1_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if far.Since != base.Next || far.Next != base.Next || len(far.Detections) != 0 {
		t.Errorf("overshot cursor page %+v, want empty page clamped to %d", far, base.Next)
	}

	// Last-Event-ID: MaxInt resumes past every detection; M+1 must not
	// wrap to a negative cursor, which clamps to 0 and replays the whole
	// transcript. DELETE then leaves only the Final frame.
	g2 := gens[1]
	if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: g2.ID, Kind: g2.Kind}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(ctx, g2.ID, g2.Data); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	if page, err := c.Detections(ctx, g2.ID, 0); err != nil || page.Next == 0 {
		t.Fatalf("%s settled no detections (err %v): the resume check would be vacuous", g2.ID, err)
	}
	frames := watchFromLastEventID(t, srv.HTTP.URL, g2.ID, strconv.Itoa(math.MaxInt), func() {
		if _, err := c.DeleteStream(ctx, g2.ID); err != nil {
			t.Error(err)
		}
	})
	if len(frames) != 1 || !frames[0].Final {
		t.Errorf("Last-Event-ID %d then DELETE: frames %+v, want only the Final frame", math.MaxInt, frames)
	}

	// Close the hub with the stream still attached, then page: structured
	// 404, immediately.
	srv.CloseHub(t)
	start := time.Now()
	_, err = c.Detections(ctx, g.ID, 0)
	servetest.APIErrOf(t, err, http.StatusNotFound, client.CodeUnknownStream)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("post-Close detections page took %v", elapsed)
	}
	// And watch after close: the hub refuses new subscriptions.
	_, err = c.Watch(ctx, g.ID, 0)
	servetest.APIErrOf(t, err, http.StatusServiceUnavailable, client.CodeClosed)
}

// watchFromLastEventID subscribes to a stream's SSE feed with the given
// Last-Event-ID header, calls end once the subscription is registered
// (the handler registers it before writing the response headers), and
// returns every frame up to the end of the feed.
func watchFromLastEventID(t *testing.T, base, id, lastID string, end func()) []client.WatchFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/streams/"+id+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", lastID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("watch with Last-Event-ID %s: status %d: %s", lastID, resp.StatusCode, raw)
	}
	end()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var frames []client.WatchFrame
	for _, line := range strings.Split(string(raw), "\n") {
		if data, ok := strings.CutPrefix(line, "data:"); ok {
			var f client.WatchFrame
			if err := json.Unmarshal([]byte(data), &f); err != nil {
				t.Fatalf("bad frame %q: %v", data, err)
			}
			frames = append(frames, f)
		}
	}
	return frames
}

// TestWatchNDJSON pins the ?format=ndjson variant: same frames, one JSON
// object per line, same exactly-once transcript.
func TestWatchNDJSON(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	srv := servetest.New(t, hub.Config{Workers: 2}, kinds)
	c, ts := srv.Client, srv.HTTP
	ctx := context.Background()
	gens, err := hub.DemoStreams(kinds, 79, 1, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	g := gens[0]
	if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: g.ID, Kind: g.Kind}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/streams/" + g.ID + "/watch?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("ndjson content type %q", ct)
	}
	frames := make(chan client.WatchFrame, 256)
	go func() {
		defer close(frames)
		dec := json.NewDecoder(resp.Body)
		for {
			var f client.WatchFrame
			if err := dec.Decode(&f); err != nil {
				return
			}
			frames <- f
		}
	}()

	if _, err := c.Push(ctx, g.ID, g.Data); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	rep, err := c.DeleteStream(ctx, g.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got []stream.Detection
	sawFinal := false
	deadline := time.After(30 * time.Second)
	for !sawFinal {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("ndjson feed closed without a final frame")
			}
			if f.Final {
				sawFinal = true
				break
			}
			if f.Detection == nil || f.Index != len(got) {
				t.Fatalf("ndjson frame %+v out of sequence at %d", f, len(got))
			}
			got = append(got, *f.Detection)
		case <-deadline:
			t.Fatal("ndjson feed did not finalize")
		}
	}
	if gotJSON, expJSON := detJSON(t, got), detJSON(t, rep.Detections); gotJSON != expJSON {
		t.Errorf("ndjson transcript != final report:\n got %s\nwant %s", gotJSON, expJSON)
	}
	srv.CloseHub(t)
}
