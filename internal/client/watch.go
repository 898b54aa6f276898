package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// WatchStream is a live subscription to one stream's settled detections
// (GET /v1/streams/{id}/watch, SSE). It is owned by a single consumer
// goroutine. Always Close it — an abandoned subscription holds its HTTP
// connection and a server-side watcher slot until the stream finalizes.
type WatchStream struct {
	body io.ReadCloser
	rd   *bufio.Reader
}

// Watch subscribes to a stream's settled detections starting at index
// since (GET /v1/streams/{id}/watch?since=N). Frames arrive in transcript
// order exactly once; the subscription ends with a Final frame when the
// stream is deleted or the server shuts down. To resume after a lost
// connection, call Watch again with the last frame's Next.
//
// The request context governs the whole subscription: cancelling it tears
// the connection down and surfaces the cancellation from Next. Use a
// cancellable context, not a deadline-bound one, for long-lived watches,
// and an http.Client without a Timeout (the default) — a client timeout
// kills the subscription mid-flight.
//
// Subscribing is an idempotent GET, so under WithRetry a failed subscribe
// — connection refused, or a 5xx such as a router front tier answering
// 503/unavailable during a backend failover — is retried with the same
// exponential-backoff-plus-jitter schedule as every other idempotent
// call, instead of failing straight back into the caller's reconnect
// loop. The since cursor (and thus the Last-Event-ID resume contract) is
// untouched: every attempt subscribes at the same position.
func (c *Client) Watch(ctx context.Context, id string, since int) (*WatchStream, error) {
	var (
		ws  *WatchStream
		err error
	)
	c.withRetry(ctx, true, func() bool {
		ws, err = c.watchOnce(ctx, id, since)
		return retryable(err)
	})
	return ws, err
}

// watchOnce issues a single subscribe attempt.
func (c *Client) watchOnce(ctx context.Context, id string, since int) (*WatchStream, error) {
	q := url.Values{"since": {strconv.Itoa(since)}}
	path := "/v1/streams/" + url.PathEscape(id) + "/watch?" + q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("client: watch %s: %w", id, err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &transportError{fmt.Errorf("client: watch %s: %w", id, err)}
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, decodeError(resp.StatusCode, raw)
	}
	return &WatchStream{body: resp.Body, rd: bufio.NewReader(resp.Body)}, nil
}

// Next blocks for the next frame. After a Final frame the server closes
// the feed and subsequent calls return io.EOF; a severed connection
// surfaces the transport error (resume with Watch at the last frame's
// Next).
func (w *WatchStream) Next() (WatchFrame, error) {
	var data strings.Builder
	var sawData bool
	for {
		line, err := w.rd.ReadString('\n')
		if err != nil {
			if err == io.EOF && sawData {
				err = io.ErrUnexpectedEOF // truncated frame, not a clean end
			}
			return WatchFrame{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if !sawData {
				continue // heartbeat separator between comment frames
			}
			var f WatchFrame
			if err := json.Unmarshal([]byte(data.String()), &f); err != nil {
				return WatchFrame{}, fmt.Errorf("client: bad watch frame %q: %w", data.String(), err)
			}
			return f, nil
		case strings.HasPrefix(line, ":"):
			// SSE comment (keep-alive); ignore.
		case strings.HasPrefix(line, "data:"):
			if sawData {
				data.WriteByte('\n') // multi-line data per the SSE spec
			}
			sawData = true
			data.WriteString(strings.TrimPrefix(strings.TrimSpace(line[len("data:"):]), " "))
		default:
			// Other fields (id:, event:, retry:): ignore per the SSE spec.
		}
	}
}

// Close tears down the subscription.
func (w *WatchStream) Close() error { return w.body.Close() }
