package router

// The routing basics: placement, the owner-backend echo, fan-out merges,
// error pass-through (byte for byte against the owner backend), which
// forwarded calls are retried, the watch pass-through's equivalence with
// the cursor API and its subscriber-leaves path, and the merged /metrics
// exposition.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/metrics"
	"etsc/internal/placement"
	"etsc/internal/serve"
	"etsc/internal/serve/servetest"
)

// fleetStreams renders a deterministic demo fleet and registers every
// stream through the router, returning the streams.
func fleetStreams(t *testing.T, f *fleet, n, minLen int) []hub.DemoStream {
	t.Helper()
	streams, err := hub.DemoStreams(servetest.DemoKinds(t), 7, n, minLen)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, ds := range streams {
		if _, err := f.c.CreateStream(ctx, client.CreateStreamRequest{ID: ds.ID, Kind: ds.Kind}); err != nil {
			t.Fatalf("create %s: %v", ds.ID, err)
		}
	}
	return streams
}

// TestRoutingMatchesPlacement pins the routing contract: every
// stream-scoped request lands on table[placement.Index(id, N)], the owner
// is echoed in X-Etsc-Backend, and the stream is physically present on
// that backend and nowhere else.
func TestRoutingMatchesPlacement(t *testing.T) {
	f := newFleet(t, 3, fleetOpts{})
	streams := fleetStreams(t, f, 9, 2400)
	ctx := context.Background()
	for _, ds := range streams {
		want := f.backends[placement.Index(ds.ID, 3)]
		resp, err := f.c.PushAt(ctx, ds.ID, 0, ds.Data[:50])
		if err != nil {
			t.Fatalf("push %s: %v", ds.ID, err)
		}
		if resp.Backend != want.name {
			t.Errorf("stream %s served by %q, want %q", ds.ID, resp.Backend, want.name)
		}
		// Physically on the owner, absent elsewhere.
		if _, err := want.c.Stream(ctx, ds.ID); err != nil {
			t.Errorf("stream %s not on its home %q: %v", ds.ID, want.name, err)
		}
		for _, b := range f.backends {
			if b == want {
				continue
			}
			if _, err := b.c.Stream(ctx, ds.ID); err == nil {
				t.Errorf("stream %s also present on %q", ds.ID, b.name)
			}
		}
	}
	// Through-the-router reads agree with direct-backend reads.
	for _, ds := range streams {
		via, err := f.c.Stream(ctx, ds.ID)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := f.homeOf(ds.ID).c.Stream(ctx, ds.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(via, direct) {
			t.Errorf("stream %s: router view %+v != backend view %+v", ds.ID, via, direct)
		}
	}
}

// TestStreamEndpointsReachOwner walks serve's route table: every endpoint
// whose pattern names a stream reaches that stream's owner, which the
// router echoes in X-Etsc-Backend. An endpoint added to the table is
// covered with no edit here.
func TestStreamEndpointsReachOwner(t *testing.T) {
	f := newFleet(t, 3, fleetOpts{})
	for i, ep := range serve.Endpoints {
		method, pattern, _ := strings.Cut(string(ep), " ")
		if !strings.Contains(pattern, "{id}") {
			continue
		}
		id := fmt.Sprintf("ep-%d", i)
		if _, err := f.c.CreateStream(context.Background(), client.CreateStreamRequest{ID: id}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, err := http.NewRequestWithContext(ctx, method, f.http.URL+strings.Replace(pattern, "{id}", id, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", ep, err)
		}
		// A watch answers headers first; cancelling ends its feed.
		cancel()
		resp.Body.Close()
		if got, want := resp.Header.Get(client.BackendHeader), f.homeOf(id).name; got != want {
			t.Errorf("%s for %s: %s %q, want owner %q (status %d)", ep, id, client.BackendHeader, got, want, resp.StatusCode)
		}
	}
}

// TestFanoutMerge pins the cross-stream endpoints: the stream list is the
// sorted union across backends, and /v1/stats is the commutative sum with
// one row per backend.
func TestFanoutMerge(t *testing.T) {
	f := newFleet(t, 3, fleetOpts{})
	streams := fleetStreams(t, f, 6, 2400)
	ctx := context.Background()
	for _, ds := range streams {
		if _, err := f.c.PushAt(ctx, ds.ID, 0, ds.Data[:200]); err != nil {
			t.Fatal(err)
		}
	}
	f.flushAlive(nil)

	list, err := f.c.Streams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != len(streams) {
		t.Fatalf("router lists %d streams, want %d", len(list), len(streams))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatalf("stream list not sorted: %q before %q", list[i-1].ID, list[i].ID)
		}
	}

	// The plain Totals decoding keeps working against a router.
	totals, err := f.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if totals.Streams != len(streams) {
		t.Errorf("summed Streams = %d, want %d", totals.Streams, len(streams))
	}
	var wantPoints int64
	for _, b := range f.backends {
		wantPoints += b.hub.Stats().Points
	}
	if totals.Points != wantPoints {
		t.Errorf("summed Points = %d, want %d", totals.Points, wantPoints)
	}

	// The full router body carries one row per backend, in table order.
	raw, err := http.Get(f.http.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var rs client.RouterStatsResponse
	if err := json.NewDecoder(raw.Body).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	if len(rs.Backends) != 3 {
		t.Fatalf("stats rows = %d, want 3", len(rs.Backends))
	}
	var rowStreams int
	for i, row := range rs.Backends {
		if row.Backend != f.backends[i].name {
			t.Errorf("row %d is %q, want %q (table order)", i, row.Backend, f.backends[i].name)
		}
		if !row.Alive {
			t.Errorf("row %q not alive", row.Backend)
		}
		rowStreams += row.Streams
	}
	if rowStreams != len(streams) {
		t.Errorf("per-backend rows sum to %d streams, want %d", rowStreams, len(streams))
	}
}

// TestErrorPassThrough pins the router's transparency to backend
// decisions: typed errors cross the router with status and code intact,
// and the router's own surface errors are structured too.
func TestErrorPassThrough(t *testing.T) {
	f := newFleet(t, 2, fleetOpts{})
	ctx := context.Background()

	_, err := f.c.Stream(ctx, "nope")
	servetest.APIErrOf(t, err, http.StatusNotFound, client.CodeUnknownStream)

	_, err = f.c.CreateStream(ctx, client.CreateStreamRequest{ID: "x", Kind: "no-such-kind"})
	servetest.APIErrOf(t, err, http.StatusBadRequest, client.CodeUnknownKind)

	if _, err := f.c.CreateStream(ctx, client.CreateStreamRequest{ID: "x"}); err != nil {
		t.Fatal(err)
	}
	_, err = f.c.CreateStream(ctx, client.CreateStreamRequest{ID: "x"})
	servetest.APIErrOf(t, err, http.StatusConflict, client.CodeDuplicateStream)

	// Positioned gap refuses through the router exactly as direct.
	_, err = f.c.PushAt(ctx, "x", 10_000, []float64{1})
	servetest.APIErrOf(t, err, http.StatusConflict, client.CodeGap)

	// The router's own dispatch errors carry the envelope.
	status, body := servetest.RawStatus(t, http.MethodPut, f.http.URL+"/v1/streams", "")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/streams = %d, want 405", status)
	}
	if code := servetest.EnvelopeCode(t, body); code != client.CodeMethodNotAllowed {
		t.Fatalf("code = %s, want %s", code, client.CodeMethodNotAllowed)
	}
	status, body = servetest.RawStatus(t, http.MethodGet, f.http.URL+"/v1/no-such", "")
	if status != http.StatusNotFound {
		t.Fatalf("GET /v1/no-such = %d, want 404", status)
	}
	if code := servetest.EnvelopeCode(t, body); code != client.CodeNotFound {
		t.Fatalf("code = %s, want %s", code, client.CodeNotFound)
	}

	// Router healthz answers locally.
	h, err := f.c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("router healthz = %+v, %v", h, err)
	}
}

// TestRefusedPlacementLeavesNoOverride pins that a create the backend
// refuses while the stream's home is dead records no placement override:
// once the home is back, the stream is created there, and reads through
// the router find it instead of following a stale override to a backend
// that never held it.
func TestRefusedPlacementLeavesNoOverride(t *testing.T) {
	// The prober never fires, so liveness is set by hand.
	f := newFleet(t, 3, fleetOpts{probeInterval: time.Hour})
	ctx := context.Background()
	const id = "x1"
	home := byName(f.homeOf(id).name, *f.rt.table.Load())

	home.alive.Store(false)
	_, err := f.c.CreateStream(ctx, client.CreateStreamRequest{ID: id, Kind: "no-such-kind"})
	servetest.APIErrOf(t, err, http.StatusBadRequest, client.CodeUnknownKind)

	home.alive.Store(true)
	if _, err := f.c.CreateStream(ctx, client.CreateStreamRequest{ID: id, Kind: "gunpoint"}); err != nil {
		t.Fatalf("create on the recovered home: %v", err)
	}
	if _, err := f.c.Stream(ctx, id); err != nil {
		t.Fatalf("read after create: %v", err)
	}
}

// TestErrorContractMatchesBackend pins the router's transparency byte for
// byte: each request, sent straight to the owner backend and then through
// the router, gets the same status and the same body. The router adds no
// validation of its own, so it cannot drift from the backend's rules.
func TestErrorContractMatchesBackend(t *testing.T) {
	f := newFleet(t, 2, fleetOpts{})
	ctx := context.Background()
	if _, err := f.c.CreateStream(ctx, client.CreateStreamRequest{ID: "s"}); err != nil {
		t.Fatal(err)
	}
	snap, err := f.c.SnapshotStream(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	snap.ID = "other"
	mismatch, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot of a stream that no longer exists, so restoring it is
	// refused only for the bytes after it.
	if _, err := f.c.CreateStream(ctx, client.CreateStreamRequest{ID: "gone"}); err != nil {
		t.Fatal(err)
	}
	goneSnap, err := f.c.SnapshotStream(ctx, "gone")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.c.DeleteStream(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	gone, err := json.Marshal(goneSnap)
	if err != nil {
		t.Fatal(err)
	}
	// A watch the router wrongly accepts holds its feed open; the timeout
	// turns that into a failure instead of a hang.
	hc := &http.Client{Timeout: 2 * time.Second}
	do := func(base, method, path, body, lastEventID string) (int, string, error) {
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			return 0, "", err
		}
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := hc.Do(req)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw), err
	}
	for _, tc := range []struct {
		name, method, path, body, lastEventID string
		owner                                 string // the id the router places or routes by
	}{
		{name: "since junk", method: http.MethodGet, path: "/v1/detections?stream=s&since=7junk", owner: "s"},
		{name: "since space", method: http.MethodGet, path: "/v1/detections?stream=s&since=%207", owner: "s"},
		{name: "since hex", method: http.MethodGet, path: "/v1/detections?stream=s&since=0x10", owner: "s"},
		{name: "since negative", method: http.MethodGet, path: "/v1/detections?stream=s&since=-1", owner: "s"},
		{name: "push at negative", method: http.MethodPost, path: "/v1/streams/s/push", body: `{"points":[1],"at":-1}`, owner: "s"},
		{name: "push malformed", method: http.MethodPost, path: "/v1/streams/s/push", body: `{"points":[1,`, owner: "s"},
		{name: "push trailing value", method: http.MethodPost, path: "/v1/streams/s/push", body: `{"points":[1,2,3]}{"points":[4,5]}`, owner: "s"},
		{name: "push null point", method: http.MethodPost, path: "/v1/streams/s/push", body: `{"points":[1,null,3]}`, owner: "s"},
		{name: "create trailing value", method: http.MethodPost, path: "/v1/streams", body: `{"id":"t1"}{"id":"t2"}`, owner: "t1"},
		{name: "restore trailing value", method: http.MethodPost, path: "/v1/streams/gone/snapshot", body: string(gone) + `{}`, owner: "gone"},
		{name: "create malformed", method: http.MethodPost, path: "/v1/streams", body: `{"id":`},
		{name: "create id not a string", method: http.MethodPost, path: "/v1/streams", body: `{"id":5}`},
		{name: "create id with slash", method: http.MethodPost, path: "/v1/streams", body: `{"id":"a/b"}`, owner: "a/b"},
		{name: "create unknown engine", method: http.MethodPost, path: "/v1/streams", body: `{"id":"w","engine":"warp"}`, owner: "w"},
		{name: "restore id mismatch", method: http.MethodPost, path: "/v1/streams/s/snapshot", body: string(mismatch), owner: "s"},
		{name: "watch bad format", method: http.MethodGet, path: "/v1/streams/s/watch?format=bogus", owner: "s"},
		{name: "watch bad Last-Event-ID", method: http.MethodGet, path: "/v1/streams/s/watch", lastEventID: "x", owner: "s"},
		{name: "streams wrong method", method: http.MethodPut, path: "/v1/streams"},
		{name: "stream wrong method", method: http.MethodPost, path: "/v1/streams/s", owner: "s"},
		{name: "push wrong method", method: http.MethodGet, path: "/v1/streams/s/push", owner: "s"},
		{name: "snapshot wrong method", method: http.MethodDelete, path: "/v1/streams/s/snapshot", owner: "s"},
		{name: "watch wrong method", method: http.MethodPost, path: "/v1/streams/s/watch", owner: "s"},
		{name: "stats wrong method", method: http.MethodPost, path: "/v1/stats"},
		{name: "detections wrong method", method: http.MethodPost, path: "/v1/detections?stream=s", owner: "s"},
		{name: "detections without stream", method: http.MethodGet, path: "/v1/detections"},
		{name: "healthz wrong method", method: http.MethodPost, path: "/v1/healthz"},
		{name: "metrics wrong method", method: http.MethodPost, path: "/metrics"},
		{name: "unknown endpoint", method: http.MethodGet, path: "/v1/nonesuch"},
		// An empty id segment matches no endpoint: both binaries answer
		// the 404 not_found envelope (owner only picks the backend asked
		// directly).
		{name: "empty id segment", method: http.MethodPost, path: "/v1/streams//push", owner: "push"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantStatus, wantBody, err := do(f.homeOf(tc.owner).http.URL, tc.method, tc.path, tc.body, tc.lastEventID)
			if err != nil {
				t.Fatalf("direct: %v", err)
			}
			if wantStatus < 400 {
				t.Fatalf("backend accepted the request (%d %s): the case pins nothing", wantStatus, wantBody)
			}
			gotStatus, gotBody, err := do(f.http.URL, tc.method, tc.path, tc.body, tc.lastEventID)
			if err != nil {
				t.Fatalf("via router (status %d): %v", gotStatus, err)
			}
			if gotStatus != wantStatus || gotBody != wantBody {
				t.Errorf("via router %d %s\ndirect     %d %s", gotStatus, gotBody, wantStatus, wantBody)
			}
		})
	}
}

// TestForwardRetryPolicy pins which forwarded calls the router repeats
// when the backend answers 5xx: reads, DELETE and positioned pushes are
// safe to repeat; a plain push, a create and a restore are not, and their
// 502 goes back to the caller as the backend sent it.
func TestForwardRetryPolicy(t *testing.T) {
	var calls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprint(w, `{"error":{"code":"internal","message":"blip"}}`)
			return
		}
		fmt.Fprint(w, `{}`)
	}))
	defer backend.Close()
	rt, err := New(Config{Backends: []BackendSpec{{Name: "b", URL: backend.URL}}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path, body string
		retried            bool
	}{
		{http.MethodGet, "/v1/streams/s", "", true},
		{http.MethodGet, "/v1/streams/s/snapshot", "", true},
		{http.MethodGet, "/v1/detections?stream=s", "", true},
		{http.MethodDelete, "/v1/streams/s", "", true},
		{http.MethodPost, "/v1/streams/s/push", `{"points":[1],"at":0}`, true},
		{http.MethodPost, "/v1/streams/s/push", `{"points":[1]}`, false},
		{http.MethodPost, "/v1/streams", `{"id":"s"}`, false},
		{http.MethodPost, "/v1/streams/s/snapshot", `{"id":"s"}`, false},
	} {
		calls.Store(0)
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		want, wantCalls := http.StatusBadGateway, int64(1)
		if tc.retried {
			want, wantCalls = http.StatusOK, 2
		}
		if rec.Code != want || calls.Load() != wantCalls {
			t.Errorf("%s %s %s: status %d after %d backend calls, want %d after %d",
				tc.method, tc.path, tc.body, rec.Code, calls.Load(), want, wantCalls)
		}
	}
}

// leavingRecorder is a subscriber that disconnects (cancels its request
// context) once a detection frame has been flushed to it.
type leavingRecorder struct {
	*httptest.ResponseRecorder
	leave context.CancelFunc
}

func (r leavingRecorder) Flush() {
	r.ResponseRecorder.Flush()
	if strings.Contains(r.Body.String(), `"detection"`) {
		r.leave()
	}
}

// TestWatchSubscriberLeaves pins the watch pass-through when the
// subscriber disconnects mid-feed, in both formats: the handler returns
// without a panic and writes no final frame to the departed client. The
// handler runs on the test goroutine, where a panic is not recovered.
func TestWatchSubscriberLeaves(t *testing.T) {
	f := newFleet(t, 2, fleetOpts{})
	ds := fleetStreams(t, f, 1, 2400)[0]
	if _, err := f.c.PushAt(context.Background(), ds.ID, 0, ds.Data); err != nil {
		t.Fatal(err)
	}
	f.flushAlive(nil)
	for _, tc := range []struct{ format, contentType string }{
		{"", "text/event-stream"},
		{"ndjson", "application/x-ndjson"},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest(http.MethodGet, "/v1/streams/"+ds.ID+"/watch?format="+tc.format, nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		f.rt.ServeHTTP(leavingRecorder{rec, cancel}, req)
		cancel()
		if rec.Code != http.StatusOK {
			t.Fatalf("format %q: status %d: %s", tc.format, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != tc.contentType {
			t.Errorf("format %q: Content-Type %q, want %q", tc.format, ct, tc.contentType)
		}
		if !strings.Contains(rec.Body.String(), `"detection"`) {
			t.Errorf("format %q: no detection frame before the subscriber left: the feed was empty", tc.format)
		}
		if strings.Contains(rec.Body.String(), `"final":true`) {
			t.Errorf("format %q: final frame written after the subscriber left:\n%s", tc.format, rec.Body)
		}
	}
}

// TestWatchThroughRouter pins the pass-through subscription against the
// cursor API: a watcher through the router sees exactly the settled
// transcript, in order, with contiguous indexes.
func TestWatchThroughRouter(t *testing.T) {
	f := newFleet(t, 3, fleetOpts{})
	streams := fleetStreams(t, f, 3, 2400)
	ds := streams[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ws, err := f.c.Watch(ctx, ds.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()

	for at := 0; at < len(ds.Data); at += 100 {
		end := at + 100
		if end > len(ds.Data) {
			end = len(ds.Data)
		}
		if _, err := f.c.PushAt(ctx, ds.ID, at, ds.Data[at:end]); err != nil {
			t.Fatal(err)
		}
	}
	f.flushAlive(nil)
	page, err := f.c.Detections(ctx, ds.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Delete ends the feed with a Final frame.
	done := make(chan client.StreamReport, 1)
	go func() {
		rep, err := f.c.DeleteStream(context.Background(), ds.ID)
		if err != nil {
			t.Errorf("delete: %v", err)
		}
		done <- rep
	}()

	var got int
	for {
		fr, err := ws.Next()
		if err != nil {
			t.Fatalf("watch ended early after %d frames: %v", got, err)
		}
		if fr.Final {
			break
		}
		if fr.Index != got {
			t.Fatalf("frame %d carries index %d (not contiguous)", got, fr.Index)
		}
		if got < len(page.Detections) && !reflect.DeepEqual(*fr.Detection, page.Detections[got]) {
			t.Fatalf("frame %d != cursor page entry:\n %+v\n %+v", got, *fr.Detection, page.Detections[got])
		}
		got++
	}
	rep := <-done
	if got != len(rep.Detections) {
		t.Fatalf("watched %d detections, final report has %d", got, len(rep.Detections))
	}

	// Last-Event-ID: MaxInt resumes past every detection; M+1 must not
	// wrap negative, or the router forwards ?since=<MinInt>, which the
	// backend rejects. DELETE then leaves only the Final frame.
	ds = streams[1]
	if _, err := f.c.Push(ctx, ds.ID, ds.Data); err != nil {
		t.Fatal(err)
	}
	f.flushAlive(nil)
	if page, err := f.c.Detections(ctx, ds.ID, 0); err != nil || page.Next == 0 {
		t.Fatalf("%s settled no detections (err %v): the resume check would be vacuous", ds.ID, err)
	}
	req, err := http.NewRequest(http.MethodGet, f.http.URL+"/v1/streams/"+ds.ID+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.Itoa(math.MaxInt))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("watch with Last-Event-ID MaxInt: status %d: %s", resp.StatusCode, raw)
	}
	// The router subscribes on the owner before writing its headers.
	if _, err := f.c.DeleteStream(ctx, ds.ID); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var frames []client.WatchFrame
	for _, line := range strings.Split(string(raw), "\n") {
		if data, ok := strings.CutPrefix(line, "data:"); ok {
			var fr client.WatchFrame
			if err := json.Unmarshal([]byte(data), &fr); err != nil {
				t.Fatalf("bad frame %q: %v", data, err)
			}
			frames = append(frames, fr)
		}
	}
	if len(frames) != 1 || !frames[0].Final {
		t.Errorf("Last-Event-ID MaxInt then DELETE: frames %+v, want only the Final frame", frames)
	}
}

// TestMetricsAggregation pins the merged exposition: lintable, router
// families present, every backend visible under its backend label.
func TestMetricsAggregation(t *testing.T) {
	f := newFleet(t, 3, fleetOpts{})
	streams := fleetStreams(t, f, 3, 2400)
	ctx := context.Background()
	for _, ds := range streams {
		if _, err := f.c.PushAt(ctx, ds.ID, 0, ds.Data[:200]); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range f.backends {
		b.srv.EnableMetrics(nil)
	}
	f.flushAlive(nil)

	resp, err := http.Get(f.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text := readAll(t, resp)
	if err := metrics.Lint(strings.NewReader(text)); err != nil {
		t.Fatalf("merged exposition does not lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"etsc_router_backend_alive",
		"etsc_router_overrides",
		`etsc_router_requests_total{backend="`,
		`backend="a-node"`,
		`backend="b-node"`,
		`backend="c-node"`,
		"etsc_streams{backend=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("merged exposition missing %q", want)
		}
	}
}

// TestMetricsSurvivesMalformedBackend pins that a backend degrades only
// its own contribution to the merged exposition: one whose body does not
// parse is dropped, and the merged body still lints and still carries
// the healthy backend's families.
func TestMetricsSurvivesMalformedBackend(t *testing.T) {
	good := servetest.New(t, hub.Config{Workers: 1}, servetest.DemoKinds(t))
	defer good.CloseHub(t)
	good.Srv.EnableMetrics(nil)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "x{a=b} 1\n")
	}))
	defer bad.Close()
	rt, err := New(Config{
		Backends: []BackendSpec{{Name: "good", URL: good.HTTP.URL}, {Name: "bad", URL: bad.URL}},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	if err := metrics.Lint(strings.NewReader(text)); err != nil {
		t.Fatalf("merged exposition does not lint: %v\n%s", err, text)
	}
	if !strings.Contains(text, `etsc_streams{backend="good"}`) {
		t.Errorf("merged exposition lost the healthy backend's etsc_streams:\n%s", text)
	}
}

// TestMetricsDropsBackendLabeledFamily pins that a backend family whose
// samples already carry a backend label is dropped from the merge, since
// the router's relabel would repeat the label name, while the merged
// body still lints and keeps every family of the healthy backend.
func TestMetricsDropsBackendLabeledFamily(t *testing.T) {
	good := servetest.New(t, hub.Config{Workers: 1}, servetest.DemoKinds(t))
	defer good.CloseHub(t)
	good.Srv.EnableMetrics(nil)
	labeled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "# TYPE x counter\nx{backend=\"z\"} 1\n")
	}))
	defer labeled.Close()
	rt, err := New(Config{
		Backends: []BackendSpec{{Name: "good", URL: good.HTTP.URL}, {Name: "labeled", URL: labeled.URL}},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	merged, err := metrics.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("merged exposition does not lint: %v\n%s", err, text)
	}
	have := map[string]bool{}
	for _, f := range merged {
		have[f.Name] = true
	}
	if have["x"] {
		t.Errorf("merged exposition kept the backend-labeled family x:\n%s", text)
	}
	resp, err := http.Get(good.HTTP.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	goodFams, err := metrics.Parse(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range goodFams {
		if !have[f.Name] {
			t.Errorf("merged exposition lost the healthy backend's family %s", f.Name)
		}
	}
}

// TestNonCanonicalPathsAre404 pins dispatch on the path as sent: a path a
// ServeMux would clean and answer with a 301, which a client follows as a
// GET of another path, gets the 404 not_found envelope from a backend
// and through the router alike.
func TestNonCanonicalPathsAre404(t *testing.T) {
	f := newFleet(t, 1, fleetOpts{})
	hc := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	for _, base := range []string{f.backends[0].http.URL, f.http.URL} {
		for _, tc := range []struct{ method, path string }{
			{http.MethodPost, "/v1/streams//push"},
			{http.MethodPost, "/v1/streams/x/../push"},
			{http.MethodGet, "/v1"},
		} {
			req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(`{"points":[1]}`))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := hc.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			resp.Body.Close()
			var env client.ErrorEnvelope
			if resp.StatusCode != http.StatusNotFound || json.Unmarshal([]byte(body), &env) != nil || env.Error.Code != client.CodeNotFound {
				t.Errorf("%s %s%s: %d %s, want 404 %s", tc.method, base, tc.path, resp.StatusCode, body, client.CodeNotFound)
			}
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
