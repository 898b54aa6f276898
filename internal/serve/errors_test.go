package serve_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/serve"
	"etsc/internal/serve/servetest"
)

// TestV1ErrorPaths covers every /v1 failure class: malformed JSON,
// missing/unknown ids, unknown kind, bad spec, bad engine (on create and on
// snapshot restore), wrong method,
// unknown endpoint, duplicate registration, and bad cursor values —
// each with its machine-readable code — and pins that the unversioned
// pre-/v1 routes are gone.
func TestV1ErrorPaths(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	srv := servetest.New(t, hub.Config{Workers: 1}, kinds)
	h, c, ts := srv.Hub, srv.Client, srv.HTTP
	ctx := context.Background()

	// Malformed JSON bodies.
	status, body := servetest.RawStatus(t, http.MethodPost, ts.URL+"/v1/streams", "{not json")
	if status != http.StatusBadRequest || servetest.EnvelopeCode(t, body) != client.CodeBadJSON {
		t.Errorf("malformed create: %d %s", status, body)
	}
	// A malformed registration must not attach a ghost stream.
	if streams, err := c.Streams(ctx); err != nil || len(streams) != 0 {
		t.Errorf("ghost stream after malformed create: %v %v", streams, err)
	}

	// Missing id.
	_, err := c.CreateStream(ctx, client.CreateStreamRequest{Kind: "chicken"})
	servetest.APIErrOf(t, err, http.StatusBadRequest, client.CodeBadRequest)

	// Ids that cannot survive path routing: '/' splits the segments,
	// "."/".." are rewritten by the mux's path cleaning.
	for _, id := range []string{"a/b", ".", ".."} {
		_, err = c.CreateStream(ctx, client.CreateStreamRequest{ID: id, Kind: "chicken"})
		servetest.APIErrOf(t, err, http.StatusBadRequest, client.CodeBadRequest)
	}

	// Unknown kind.
	_, err = c.CreateStream(ctx, client.CreateStreamRequest{ID: "x", Kind: "lobster"})
	servetest.APIErrOf(t, err, http.StatusBadRequest, client.CodeUnknownKind)

	// Bad specs: unparseable, unknown algorithm, unknown parameter,
	// non-finite number.
	for _, spec := range []string{":=", "nonesuch", "ects:suport=1", "probthreshold:threshold=nan"} {
		_, err = c.CreateStream(ctx, client.CreateStreamRequest{ID: "x", Kind: "chicken", Spec: spec})
		servetest.APIErrOf(t, err, http.StatusBadRequest, client.CodeBadSpec)
	}

	// Bad engine.
	_, err = c.CreateStream(ctx, client.CreateStreamRequest{ID: "x", Kind: "chicken", Engine: "warp"})
	servetest.APIErrOf(t, err, http.StatusBadRequest, client.CodeBadRequest)

	// Push to an unregistered stream: /v1 does not lazily attach.
	_, err = c.Push(ctx, "nonesuch", []float64{1, 2, 3})
	servetest.APIErrOf(t, err, http.StatusNotFound, client.CodeUnknownStream)

	// Unknown stream for get/delete/detections.
	_, err = c.Stream(ctx, "nonesuch")
	servetest.APIErrOf(t, err, http.StatusNotFound, client.CodeUnknownStream)
	_, err = c.DeleteStream(ctx, "nonesuch")
	servetest.APIErrOf(t, err, http.StatusNotFound, client.CodeUnknownStream)
	_, err = c.Detections(ctx, "nonesuch", 0)
	servetest.APIErrOf(t, err, http.StatusNotFound, client.CodeUnknownStream)

	// Duplicate registration.
	if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: "coop", Kind: "chicken"}); err != nil {
		t.Fatal(err)
	}
	_, err = c.CreateStream(ctx, client.CreateStreamRequest{ID: "coop", Kind: "chicken"})
	servetest.APIErrOf(t, err, http.StatusConflict, client.CodeDuplicateStream)

	// Bad engine on snapshot restore: the same check as registration, so
	// a restore body cannot smuggle an unknown engine into StreamInfo or
	// the next checkpoint. The rejected restore attaches nothing.
	if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: "coop-snap", Kind: "chicken"}); err != nil {
		t.Fatal(err)
	}
	snapshot, err := c.SnapshotStream(ctx, "coop-snap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteStream(ctx, "coop-snap"); err != nil {
		t.Fatal(err)
	}
	snapshot.Engine = "warp"
	_, err = c.RestoreStream(ctx, snapshot)
	servetest.APIErrOf(t, err, http.StatusBadRequest, client.CodeBadRequest)
	if _, err := c.Stream(ctx, "coop-snap"); !client.IsCode(err, client.CodeUnknownStream) {
		t.Errorf("restore with a bad engine attached a stream: %v", err)
	}

	// Malformed push bodies: a second JSON value after the first and a
	// null point are refused too, not truncated or read as 0.
	for _, bad := range []string{`{"points":["a"]}`, `{"points":[1,2,3]}{"points":[4,5]}`, `{"points":[1,null,3]}`, `{"points":[1]} x`} {
		status, body = servetest.RawStatus(t, http.MethodPost, ts.URL+"/v1/streams/coop/push", bad)
		if status != http.StatusBadRequest || servetest.EnvelopeCode(t, body) != client.CodeBadJSON {
			t.Errorf("malformed push %s: %d %s", bad, status, body)
		}
	}

	// Wrong methods, structured 405s.
	for _, tc := range []struct{ method, path string }{
		{http.MethodDelete, "/v1/streams"},
		{http.MethodPut, "/v1/streams/coop"},
		{http.MethodGet, "/v1/streams/coop/push"},
		{http.MethodPost, "/v1/streams/coop/watch"},
		{http.MethodPost, "/v1/stats"},
		{http.MethodPost, "/v1/detections"},
	} {
		status, body := servetest.RawStatus(t, tc.method, ts.URL+tc.path, "")
		if status != http.StatusMethodNotAllowed || servetest.EnvelopeCode(t, body) != client.CodeMethodNotAllowed {
			t.Errorf("%s %s: %d %s", tc.method, tc.path, status, body)
		}
	}

	// Unknown endpoint.
	status, body = servetest.RawStatus(t, http.MethodGet, ts.URL+"/v1/nonesuch", "")
	if status != http.StatusNotFound || servetest.EnvelopeCode(t, body) != client.CodeNotFound {
		t.Errorf("unknown endpoint: %d %s", status, body)
	}

	// The removed unversioned routes answer 404 and attach nothing.
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/push?stream=ghost&kind=chicken"},
		{http.MethodGet, "/stats"},
		{http.MethodGet, "/streams"},
		{http.MethodGet, "/detections?stream=coop"},
		{http.MethodPost, "/detach?stream=coop"},
	} {
		if status, body := servetest.RawStatus(t, tc.method, ts.URL+tc.path, "1 2 3"); status != http.StatusNotFound {
			t.Errorf("%s %s: %d %s, want 404", tc.method, tc.path, status, body)
		}
	}
	if _, err := c.Stream(ctx, "ghost"); !client.IsCode(err, client.CodeUnknownStream) {
		t.Errorf("POST /push attached a stream: %v", err)
	}

	// Bad detections cursor values.
	status, body = servetest.RawStatus(t, http.MethodGet, ts.URL+"/v1/detections?stream=coop&since=-3", "")
	if status != http.StatusBadRequest || servetest.EnvelopeCode(t, body) != client.CodeBadRequest {
		t.Errorf("negative since: %d %s", status, body)
	}
	status, body = servetest.RawStatus(t, http.MethodGet, ts.URL+"/v1/detections", "")
	if status != http.StatusBadRequest || servetest.EnvelopeCode(t, body) != client.CodeBadRequest {
		t.Errorf("missing stream: %d %s", status, body)
	}

	// Bad watch parameters: malformed/negative since, bad Last-Event-ID,
	// unknown format, unknown stream.
	for _, q := range []string{"?since=-1", "?since=zebra", "?format=morse"} {
		status, body = servetest.RawStatus(t, http.MethodGet, ts.URL+"/v1/streams/coop/watch"+q, "")
		if status != http.StatusBadRequest || servetest.EnvelopeCode(t, body) != client.CodeBadRequest {
			t.Errorf("watch %s: %d %s", q, status, body)
		}
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/streams/coop/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || servetest.EnvelopeCode(t, string(raw)) != client.CodeBadRequest {
		t.Errorf("bad Last-Event-ID: %d %s", resp.StatusCode, raw)
	}
	_, err = c.Watch(ctx, "nonesuch", 0)
	servetest.APIErrOf(t, err, http.StatusNotFound, client.CodeUnknownStream)

	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV1PushBackpressure429 pins the Drop policy surfacing as a 429 with
// the backpressure code and a Retry-After hint on /v1.
func TestV1PushBackpressure429(t *testing.T) {
	srv := servetest.New(t, hub.Config{Workers: 1, QueueDepth: 1, Policy: hub.Drop}, []hub.Kind{servetest.SlowKind(30 * time.Millisecond)})
	h, c, ts := srv.Hub, srv.Client, srv.HTTP
	ctx := context.Background()
	if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: "s1"}); err != nil {
		t.Fatal(err)
	}

	batch := make([]float64, 256)
	saw429 := false
	for i := 0; i < 8 && !saw429; i++ {
		_, err := c.Push(ctx, "s1", batch)
		if err == nil {
			continue
		}
		if !client.IsBackpressure(err) {
			t.Fatalf("push error is not backpressure: %v", err)
		}
		ae := err.(*client.APIError)
		if ae.Status != http.StatusTooManyRequests {
			t.Fatalf("backpressure status %d, want 429", ae.Status)
		}
		saw429 = true
	}
	if !saw429 {
		t.Fatal("no 429 after 8 rapid pushes against a full depth-1 queue")
	}
	// The Retry-After header rides on the raw response.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/streams/s1/push", strings.NewReader(`{"points":[1,2,3]}`))
	var lastRetry string
	for i := 0; i < 8; i++ {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		retry := resp.Header.Get("Retry-After")
		status := resp.StatusCode
		resp.Body.Close()
		req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/streams/s1/push", strings.NewReader(`{"points":[1,2,3]}`))
		if status == http.StatusTooManyRequests {
			lastRetry = retry
			break
		}
	}
	if lastRetry == "" {
		t.Error("429 without Retry-After")
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV1ShedPolicyNoBackpressure pins the Shed admission-control contract
// over HTTP: a saturated stream under -policy shed never 429s — every push
// is accepted — and the loss surfaces as per-stream shed counters in
// /v1/streams stats instead.
func TestV1ShedPolicyNoBackpressure(t *testing.T) {
	srv := servetest.New(t, hub.Config{Workers: 1, QueueDepth: 1, Policy: hub.Shed}, []hub.Kind{servetest.SlowKind(30 * time.Millisecond)})
	h, c := srv.Hub, srv.Client
	ctx := context.Background()
	if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: "s1"}); err != nil {
		t.Fatal(err)
	}

	batch := make([]float64, 256)
	for i := 0; i < 12; i++ {
		if _, err := c.Push(ctx, "s1", batch); err != nil {
			t.Fatalf("push %d rejected under Shed: %v", i, err)
		}
	}
	info, err := c.Stream(ctx, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.ShedBatches == 0 {
		t.Error("12 rapid pushes against a depth-1 queue shed nothing")
	}
	if info.Stats.DroppedBatches != 0 {
		t.Errorf("Shed policy counted %d drops", info.Stats.DroppedBatches)
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV1TooLargeBody pins the body-size cap's structured 413.
func TestV1TooLargeBody(t *testing.T) {
	srv := servetest.New(t, hub.Config{Workers: 1}, servetest.DemoKinds(t))
	h, c, ts := srv.Hub, srv.Client, srv.HTTP
	if _, err := c.CreateStream(context.Background(), client.CreateStreamRequest{ID: "big", Kind: "chicken"}); err != nil {
		t.Fatal(err)
	}
	// A >32MB JSON body without allocating it all at once: stream a huge
	// array of zeros.
	body := io.MultiReader(
		strings.NewReader(`{"points":[0`),
		strings.NewReader(strings.Repeat(",0", 18_000_000)),
		strings.NewReader("]}"),
	)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/streams/big/push", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %s)", resp.StatusCode, raw)
	}
	if code := servetest.EnvelopeCode(t, string(raw)); code != client.CodeTooLarge {
		t.Errorf("code %s, want %s", code, client.CodeTooLarge)
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeNew covers constructor validation.
func TestServeNew(t *testing.T) {
	h, err := hub.New(hub.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serve.New(h, nil); err == nil {
		t.Error("no kinds accepted")
	}
	k := servetest.SlowKind(30 * time.Millisecond)
	if _, err := serve.New(h, []hub.Kind{k, k}); err == nil {
		t.Error("duplicate kinds accepted")
	}
	srv, err := serve.New(h, []hub.Kind{k})
	if err != nil {
		t.Fatal(err)
	}
	if names := srv.KindNames(); len(names) != 1 || names[0] != "slow" {
		t.Errorf("KindNames() = %v", names)
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}
