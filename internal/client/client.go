package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is a typed client for one etsc-serve `/v1` endpoint. The zero
// value is not usable; construct with New. Methods are safe for
// concurrent use (the underlying http.Client is).
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, tracing, test
// round-trippers). The default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetry enables bounded retries for idempotent calls: up to attempts
// total tries per call, with exponential backoff starting at base
// (doubled per retry, jittered, capped at 5s) and cut short by context
// cancellation. Only connection-level failures and 5xx responses are
// retried, and only on calls that are safe to repeat — reads, DELETE,
// and positioned pushes (PushAt, idempotent by the watermark contract).
// Plain Push, CreateStream, and RestoreStream are never retried, and a
// 429 backpressure response is never retried either: that is the
// caller's explicit pace signal (IsBackpressure), not a transient fault.
func WithRetry(attempts int, base time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = attempts, base }
}

// New builds a client for the server at base (e.g. "http://coop7:8080").
// The /v1 prefix is implied; do not include it.
func New(base string, opts ...Option) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", base, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q needs an http(s) scheme", base)
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// CreateStream registers a stream (POST /v1/streams) and returns its
// initial description. A duplicate id fails with CodeDuplicateStream.
// Not retried: a lost response would make the retry fail as a duplicate.
func (c *Client) CreateStream(ctx context.Context, req CreateStreamRequest) (StreamInfo, error) {
	var out StreamInfo
	err := c.do(ctx, http.MethodPost, "/v1/streams", req, &out, false)
	return out, err
}

// Push ingests one batch of points (POST /v1/streams/{id}/push). A full
// queue under the Drop policy fails with CodeBackpressure
// (IsBackpressure); the batch was not applied and may be retried whole.
// Not auto-retried even under WithRetry — an unpositioned push that got
// applied before the response was lost would be applied twice; use
// PushAt when replay safety matters.
func (c *Client) Push(ctx context.Context, id string, points []float64) (PushResponse, error) {
	var out PushResponse
	err := c.do(ctx, http.MethodPost, "/v1/streams/"+url.PathEscape(id)+"/push", PushRequest{Points: points}, &out, false)
	return out, err
}

// PushAt ingests a batch whose first point sits at absolute stream
// position at (POST /v1/streams/{id}/push with "at"). Positioned pushes
// are idempotent — already-accepted positions are skipped server-side —
// so this call IS auto-retried under WithRetry; a position beyond the
// stream's watermark fails with CodeGap.
func (c *Client) PushAt(ctx context.Context, id string, at int, points []float64) (PushResponse, error) {
	var out PushResponse
	req := PushRequest{Points: points, At: &at}
	err := c.do(ctx, http.MethodPost, "/v1/streams/"+url.PathEscape(id)+"/push", req, &out, true)
	return out, err
}

// Streams lists every registered stream with live stats (GET /v1/streams).
func (c *Client) Streams(ctx context.Context) ([]StreamInfo, error) {
	var out StreamList
	if err := c.do(ctx, http.MethodGet, "/v1/streams", nil, &out, true); err != nil {
		return nil, err
	}
	return out.Streams, nil
}

// Stream fetches one stream's description (GET /v1/streams/{id}).
func (c *Client) Stream(ctx context.Context, id string) (StreamInfo, error) {
	var out StreamInfo
	err := c.do(ctx, http.MethodGet, "/v1/streams/"+url.PathEscape(id), nil, &out, true)
	return out, err
}

// SnapshotStream exports a stream's durable state
// (GET /v1/streams/{id}/snapshot): the opaque self-validating state
// frame plus the kind/spec needed to rebuild the classifier on
// restore. The export cuts at a batch boundary; the stream keeps running.
func (c *Client) SnapshotStream(ctx context.Context, id string) (StreamSnapshot, error) {
	var out StreamSnapshot
	err := c.do(ctx, http.MethodGet, "/v1/streams/"+url.PathEscape(id)+"/snapshot", nil, &out, true)
	return out, err
}

// RestoreStream recreates a stream from a snapshot
// (POST /v1/streams/{id}/snapshot). The id must be free; corrupt or
// mismatched state fails with CodeBadSnapshot and nothing is attached.
// Not auto-retried (a lost response would surface as CodeDuplicateStream;
// the caller can confirm with Stream and resume pushing with PushAt).
func (c *Client) RestoreStream(ctx context.Context, snap StreamSnapshot) (StreamInfo, error) {
	var out StreamInfo
	err := c.do(ctx, http.MethodPost, "/v1/streams/"+url.PathEscape(snap.ID)+"/snapshot", snap, &out, false)
	return out, err
}

// Health probes GET /v1/healthz: nil error means the server is up and
// ready (boot-time checkpoint restore finished). A server mid-restore
// answers 503/CodeUnavailable. Deliberately single-shot even under
// WithRetry — a health prober must see failures, not have them smoothed
// away by its own transport.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var out Health
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &out, false)
	return out, err
}

// Stats fetches hub-wide totals (GET /v1/stats).
func (c *Client) Stats(ctx context.Context) (Totals, error) {
	var out Totals
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out, true)
	return out, err
}

// Detections fetches a stream's settled detections from the since cursor
// onward (GET /v1/detections?stream=ID&since=N). Poll with the returned
// Next to consume the transcript incrementally: each detection arrives
// exactly once, with its final Recanted flag (see DetectionsPage).
func (c *Client) Detections(ctx context.Context, id string, since int) (DetectionsPage, error) {
	var out DetectionsPage
	q := url.Values{"stream": {id}, "since": {strconv.Itoa(since)}}
	err := c.do(ctx, http.MethodGet, "/v1/detections?"+q.Encode(), nil, &out, true)
	return out, err
}

// DeleteStream detaches a stream (DELETE /v1/streams/{id}), returning its
// final report: complete stats plus the full detection transcript.
func (c *Client) DeleteStream(ctx context.Context, id string) (StreamReport, error) {
	var out StreamReport
	err := c.do(ctx, http.MethodDelete, "/v1/streams/"+url.PathEscape(id), nil, &out, true)
	return out, err
}

// do runs one typed call over Forward: JSON-encode body (when non-nil),
// decode the response into out on 2xx, decode the structured error
// envelope into an *APIError otherwise.
func (c *Client) do(ctx context.Context, method, path string, body, out any, idempotent bool) error {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encode %s %s: %w", method, path, err)
		}
	}
	resp, err := c.Forward(ctx, method, path, raw, idempotent)
	if err != nil {
		return err
	}
	if resp.Status < 200 || resp.Status > 299 {
		return decodeError(resp.Status, resp.Body)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(bytes.NewReader(resp.Body)).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	// A routing front tier echoes the owner backend on every proxied
	// response; response types that care (PushResponse) pick it up here.
	if bs, ok := out.(interface{ setBackend(string) }); ok {
		bs.setBackend(resp.Header.Get(BackendHeader))
	}
	return nil
}

// Response is one reply as the server sent it.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
}

// Forward sends body (none when empty) as a method request for path, the
// request URI below the base with its query, and returns the reply
// whatever its status. An error means no complete reply arrived. When
// idempotent is set and WithRetry is configured, connection failures and
// 5xx replies are retried with backoff, and the last attempt's outcome is
// returned; see WithRetry for which calls are safe to repeat.
func (c *Client) Forward(ctx context.Context, method, path string, body []byte, idempotent bool) (Response, error) {
	var (
		resp Response
		err  error
	)
	c.withRetry(ctx, idempotent, func() bool {
		resp, err = c.once(ctx, method, path, body)
		return retryable(err) || (err == nil && resp.Status >= 500)
	})
	return resp, err
}

// withRetry is the one retry loop behind every call: it runs attempt once,
// or, for an idempotent call under WithRetry, again after each backoff
// while attempt reports a failure worth retrying, until the attempts run
// out or ctx ends. The caller keeps the last attempt's outcome.
func (c *Client) withRetry(ctx context.Context, idempotent bool, attempt func() (again bool)) {
	attempts := 1
	if idempotent && c.retries > 1 {
		attempts = c.retries
	}
	for i := 0; i < attempts; i++ {
		if i > 0 && sleepBackoff(ctx, c.backoff, i) != nil {
			return
		}
		if !attempt() || ctx.Err() != nil {
			return
		}
	}
}

// once issues a single HTTP round trip. Connection-level failures come
// back wrapped in *transportError so the retry loop can tell them apart
// from request-building bugs, which retrying cannot fix.
func (c *Client) once(ctx context.Context, method, path string, body []byte) (Response, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return Response{}, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return Response{}, &transportError{fmt.Errorf("client: %s %s: %w", method, path, err)}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return Response{}, &transportError{fmt.Errorf("client: %s %s: read reply: %w", method, path, err)}
	}
	return Response{Status: resp.StatusCode, Header: resp.Header, Body: raw}, nil
}

// transportError marks a failure below HTTP — refused connection, reset,
// timeout — the class a retry can plausibly fix.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// retryable reports whether a retry could help: connection-level
// failures (unless the context itself expired) and 5xx server errors.
// Everything the server decided on purpose — 4xx including 429
// backpressure — is final.
func retryable(err error) bool {
	var te *transportError
	if errors.As(err, &te) {
		return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	}
	var ae *APIError
	return errors.As(err, &ae) && ae.Status >= 500
}

// sleepBackoff waits out the attempt'th backoff: base doubled per retry,
// capped at 5s, jittered to [d/2, d] so a fleet of recovering clients
// does not stampede. Returns early (with the context's error) on cancel.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int) error {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base << (attempt - 1)
	if max := 5 * time.Second; d > max {
		d = max
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// decodeError turns a non-2xx reply into an *APIError, preserving the
// structured code when the body carries the envelope and falling back to
// the raw body text otherwise (e.g. a proxy's error page).
func decodeError(status int, raw []byte) error {
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		ae := env.Error
		ae.Status = status
		return &ae
	}
	return &APIError{
		Status:  status,
		Code:    CodeInternal,
		Message: strings.TrimSpace(string(raw)),
	}
}

// asAPIError unwraps err into an *APIError.
func asAPIError(err error, target **APIError) bool {
	return errors.As(err, target)
}
