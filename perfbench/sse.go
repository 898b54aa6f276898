package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"etsc/internal/stream"
)

// The generator speaks HTTP and SSE through the standard library only, so a
// change to internal/client in the commit under test cannot change the
// generator's own cost.

// frame is the part of a /watch frame the benchmark checks.
type frame struct {
	Index     int               `json:"index"`
	Detection *stream.Detection `json:"detection,omitempty"`
	Final     bool              `json:"final,omitempty"`
}

// arrival is one detection frame and when it was read off the wire.
type arrival struct {
	det stream.Detection
	idx int
	at  time.Time
}

// watcher holds one probe stream's /watch subscription on its own
// connection, for the whole run.
type watcher struct {
	s          *streamInput
	url        string
	hc         *http.Client
	got        []arrival
	final      bool
	reconnects int
	err        error
	done       chan struct{}
}

// startWatch subscribes to s's detection feed at base and returns once the
// server has committed the response headers, so no detection can settle
// unobserved. A goroutine then reads frames until the Final frame.
func startWatch(ctx context.Context, base string, s *streamInput, ops *opCounter) (*watcher, error) {
	w := &watcher{
		s:    s,
		url:  base + "/v1/streams/" + s.id + "/watch",
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
		done: make(chan struct{}),
	}
	body, err := w.subscribe(ctx, 0, ops)
	if err != nil {
		return nil, err
	}
	go w.run(ctx, body, ops)
	return w, nil
}

func (w *watcher) subscribe(ctx context.Context, since int, ops *opCounter) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"?since="+strconv.Itoa(since), nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.hc.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		drain(resp)
		err = fmt.Errorf("watch %s: http %d", w.s.id, resp.StatusCode)
	}
	ops.done(err == nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// run reads frames, resubscribing at the next index if the connection
// drops before the Final frame.
func (w *watcher) run(ctx context.Context, body io.ReadCloser, ops *opCounter) {
	defer close(w.done)
	defer w.hc.CloseIdleConnections()
	for {
		err := w.read(body)
		body.Close()
		if w.final {
			return
		}
		if err == nil {
			err = errors.New("feed ended without a final frame")
		}
		if ctx.Err() != nil || w.reconnects >= 3 {
			w.err = fmt.Errorf("watch %s: %w", w.s.id, err)
			return
		}
		w.reconnects++
		if body, err = w.subscribe(ctx, len(w.got), ops); err != nil {
			w.err = err
			return
		}
	}
}

func (w *watcher) read(body io.Reader) error {
	br := bufio.NewReader(body)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		at := time.Now()
		var f frame
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("bad frame %q: %w", data, err)
		}
		if f.Final {
			w.final = true
			return nil
		}
		if f.Detection == nil || f.Index != len(w.got) {
			return fmt.Errorf("frame %d out of order (have %d)", f.Index, len(w.got))
		}
		w.got = append(w.got, arrival{det: *f.Detection, idx: f.Index, at: at})
	}
}

// wait blocks until the feed ended or the deadline passed.
func (w *watcher) wait(d time.Duration) error {
	select {
	case <-w.done:
		return w.err
	case <-time.After(d):
		return fmt.Errorf("watch %s: no final frame within %v", w.s.id, d)
	}
}
