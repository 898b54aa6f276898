package serve_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/metrics"
	"etsc/internal/serve/servetest"
)

// scrape fetches /metrics raw, asserts the exposition content type, runs the
// body through the text-format linter, and returns it.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type %q, want the 0.0.4 exposition type", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if err := metrics.Lint(strings.NewReader(body)); err != nil {
		t.Errorf("/metrics body fails the text-format lint: %v\n%s", err, body)
	}
	return body
}

// mustContain asserts every want substring appears in the scrape body.
func mustContain(t *testing.T, body string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(body, w) {
			t.Errorf("/metrics body missing %q", w)
		}
	}
}

// TestMetricsEndpointFlat drives traffic through a flat hub with both the
// serve-layer Collect families and the hub hot-path instruments on one
// registry, then pins the scrape: parses under the format lint, carries the
// expected families, and reflects live state (streams, watchers, per-kind
// detections).
func TestMetricsEndpointFlat(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	srv := servetest.New(t, hub.Config{Workers: 2}, kinds)
	reg := srv.Srv.EnableMetrics(nil)
	srv.Hub.SetMetrics(reg)
	c := srv.Client
	ctx := context.Background()

	gens, err := hub.DemoStreams(kinds, 83, 2, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gens {
		if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: g.ID, Kind: kinds[i%len(kinds)].Name}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Push(ctx, g.ID, g.Data); err != nil {
			t.Fatal(err)
		}
	}
	srv.Flush()

	// One live watcher so etsc_watchers is non-zero at scrape time. Watch
	// registers the subscription before the response headers are written, so
	// once Watch returns the gauge must already count it.
	ws, err := c.Watch(ctx, gens[0].ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()

	body := scrape(t, srv.HTTP.URL)
	mustContain(t, body,
		"# TYPE etsc_streams gauge",
		"etsc_streams 2",
		"etsc_watchers 1",
		"# TYPE etsc_hub_push_seconds histogram",
		"etsc_hub_push_seconds_bucket{le=\"+Inf\"}",
		"etsc_hub_push_seconds_count",
		"# TYPE etsc_hub_batches_total counter",
		"etsc_hub_batches_total 2",
		"etsc_hub_points_total",
		"etsc_detections_total",
		"etsc_queue_depth 0",
		fmt.Sprintf("etsc_stream_queue_depth{stream=%q} 0", gens[0].ID),
		fmt.Sprintf("etsc_stream_watchers{stream=%q} 1", gens[0].ID),
		fmt.Sprintf("etsc_stream_detections_total{stream=%q}", gens[0].ID),
		"etsc_stream_series_omitted 0",
		fmt.Sprintf("etsc_kind_streams{kind=%q}", kinds[0].Name),
		"etsc_kind_detections_total{kind=",
	)

	// EnableMetrics is idempotent: calling it again returns the installed
	// registry and must not re-register (which would panic on duplicates).
	if again := srv.Srv.EnableMetrics(nil); again != reg {
		t.Error("second EnableMetrics returned a different registry")
	}

	// Method and non-enabled paths.
	if status, body := servetest.RawStatus(t, http.MethodPost, srv.HTTP.URL+"/metrics", ""); status != http.StatusMethodNotAllowed ||
		servetest.EnvelopeCode(t, body) != client.CodeMethodNotAllowed {
		t.Errorf("POST /metrics: %d %s, want the 405 envelope", status, body)
	}
	ws.Close()
	srv.CloseHub(t)
}

// TestMetricsDisabledIs404 pins that a server without EnableMetrics serves a
// plain 404 from /metrics — the endpoint is always routed, never surprising.
func TestMetricsDisabledIs404(t *testing.T) {
	srv := servetest.New(t, hub.Config{Workers: 1}, servetest.DemoKinds(t))
	status, body := servetest.RawStatus(t, http.MethodGet, srv.HTTP.URL+"/metrics", "")
	if status != http.StatusNotFound {
		t.Fatalf("GET /metrics without EnableMetrics: status %d, want 404", status)
	}
	if !strings.Contains(body, "not enabled") {
		t.Errorf("404 body %q does not say metrics are disabled", body)
	}
	srv.CloseHub(t)
}
