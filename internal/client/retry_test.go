package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// retryClient builds a client against srv with fast, deterministic-ish
// backoff so the retry tests finish in milliseconds.
func retryClient(t *testing.T, srv *httptest.Server, attempts int) *Client {
	t.Helper()
	c, err := New(srv.URL, WithRetry(attempts, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRetryRecoversFrom5xx pins the happy retry path: two 500s then a
// 200 succeeds on an idempotent GET, and the server saw exactly three
// requests.
func TestRetryRecoversFrom5xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"streams":[]}`)
	}))
	defer srv.Close()
	c := retryClient(t, srv, 4)
	streams, err := c.Streams(context.Background())
	if err != nil {
		t.Fatalf("Streams after two 500s: %v", err)
	}
	if len(streams) != 0 || calls.Load() != 3 {
		t.Fatalf("streams %v after %d calls, want [] after 3", streams, calls.Load())
	}
}

// TestRetryNeverRepeatsBackpressure pins that 429 is final: backpressure
// is the server's pace signal, not a transient fault, so even an
// idempotent call under WithRetry makes exactly one attempt.
func TestRetryNeverRepeatsBackpressure(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":{"code":"backpressure","message":"queue full"}}`)
	}))
	defer srv.Close()
	c := retryClient(t, srv, 5)
	at := 0
	if _, err := c.PushAt(context.Background(), "s", at, []float64{1}); !IsBackpressure(err) {
		t.Fatalf("want backpressure, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("429 retried: %d attempts", calls.Load())
	}
}

// TestRetryOnlyIdempotentCalls pins the idempotency gate: a plain Push
// (which would double-apply points) makes one attempt even under
// WithRetry, while PushAt (watermark-deduplicated) retries to success.
func TestRetryOnlyIdempotentCalls(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 1 {
			http.Error(w, "flaky", http.StatusBadGateway)
			return
		}
		fmt.Fprint(w, `{"stream":"s","queued":1}`)
	}))
	defer srv.Close()
	c := retryClient(t, srv, 3)

	_, err := c.Push(context.Background(), "s", []float64{1})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadGateway {
		t.Fatalf("plain Push: want the raw 502, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("plain Push retried: %d attempts", calls.Load())
	}

	calls.Store(0)
	if _, err := c.PushAt(context.Background(), "s", 0, []float64{1}); err != nil {
		t.Fatalf("PushAt with one 502: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("PushAt made %d attempts, want 2", calls.Load())
	}
}

// TestRetryConnectionRefused pins that connection-level failures retry:
// the server only starts listening again after the first attempt fails.
func TestRetryConnectionRefused(t *testing.T) {
	// A server that closes immediately leaves a port that refuses
	// connections; a second server cannot reclaim the same port reliably,
	// so instead use a round-tripper that fails the first N dials.
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{}`)
	}))
	defer srv.Close()
	c := retryClient(t, srv, 3)
	c.hc = &http.Client{Transport: failFirstN{n: &calls, fails: 2, next: http.DefaultTransport}}
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("Stats after two refused connections: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d attempts, want 3", calls.Load())
	}
}

// failFirstN fails the first `fails` round trips at the transport layer
// (the moral equivalent of connection refused), then delegates.
type failFirstN struct {
	n     *atomic.Int64
	fails int64
	next  http.RoundTripper
}

func (f failFirstN) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.n.Add(1) <= f.fails {
		return nil, errors.New("dial tcp: connection refused")
	}
	return f.next.RoundTrip(req)
}

// TestRetryStopsOnContextCancel pins that cancellation wins over the
// backoff schedule: a cancelled context ends the retry loop promptly
// instead of sleeping out the remaining attempts.
func TestRetryStopsOnContextCancel(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "always down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c, err := New(srv.URL, WithRetry(50, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := c.Stream(ctx, "s"); err == nil {
		t.Fatal("Stream succeeded against an always-503 server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop ignored cancellation for %v", elapsed)
	}
	if n := calls.Load(); n >= 50 {
		t.Fatalf("all %d attempts ran despite cancellation", n)
	}
}

// TestWatchRetryPolicy pins that a subscribe follows the same retry rules
// as every other idempotent call: a 503 is retried and the second attempt's
// feed is returned, while a 404 is final after one attempt.
func TestWatchRetryPolicy(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.URL.Path == "/v1/streams/gone/watch":
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":{"code":"unknown_stream","message":"unknown stream \"gone\""}}`)
		case n == 1:
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"unavailable","message":"failover"}}`)
		default:
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, "id: 0\ndata: {\"stream\":\"s\",\"index\":0,\"next\":1,\"final\":true}\n\n")
		}
	}))
	defer srv.Close()
	c := retryClient(t, srv, 3)

	ws, err := c.Watch(context.Background(), "s", 0)
	if err != nil {
		t.Fatalf("Watch after one 503: %v", err)
	}
	defer ws.Close()
	if f, err := ws.Next(); err != nil || !f.Final || f.Stream != "s" {
		t.Fatalf("first frame %+v, %v; want the second attempt's final frame", f, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("Watch made %d attempts, want 2", calls.Load())
	}

	calls.Store(0)
	_, err = c.Watch(context.Background(), "gone", 0)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("Watch on a missing stream: want the 404, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("404 retried: %d attempts", calls.Load())
	}
}
