// GET /v1/streams/{id}/watch — the live half of the detection read path.
// The cursor endpoint (/v1/detections) stays the pinned pull reference;
// watch is the push inversion of the same settled prefix, and the two are
// interchangeable frame-for-frame: a subscription transcript equals the
// paged transcript byte-for-byte, which the equivalence battery asserts.
//
// Resume contract (exactly-once across reconnects): every detection frame
// carries its transcript index as the SSE event id and Next = index+1. A
// reconnecting subscriber passes ?since=Next, or standard SSE replay
// headers (Last-Event-ID: M means since = M+1). Overshooting since is
// clamped to the settled prefix, so a stale resume token replays nothing
// and a too-new one cannot skip.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"etsc/internal/client"
	"etsc/internal/hub"
)

// v1Watch streams a stream's settled detections as SSE (default) or NDJSON
// (?format=ndjson). The handler returns when the stream finalizes (a Final
// frame is the clean last word — DELETE under a live watcher terminates the
// feed, never hangs it) or when the client disconnects.
func (s *Server) v1Watch(w http.ResponseWriter, r *http.Request, id string) {
	since, sse, apiErr := WatchQuery(r)
	if apiErr != nil {
		WriteError(w, apiErr)
		return
	}
	wch, err := s.hub.Watch(id, since)
	switch {
	case err == nil:
	case errors.Is(err, hub.ErrClosed):
		WriteError(w, hubClosed(err))
		return
	default:
		WriteError(w, unknownStream(id))
		return
	}
	defer wch.Close()

	cursor := wch.Cursor() // hub-side clamp applied
	flusher := WatchPreamble(w, sse, fmt.Sprintf("watch %s since=%d", id, cursor))
	if flusher == nil {
		return
	}
	ctx := r.Context()
	for {
		dets, final, err := wch.Next(ctx)
		if err != nil {
			return // client went away; the deferred Close frees the watcher slot
		}
		for i := range dets {
			frame := client.WatchFrame{Stream: id, Index: cursor, Next: cursor + 1, Detection: &dets[i]}
			if !WriteFrame(w, frame, sse, true) {
				return
			}
			cursor++
		}
		if final {
			WriteFrame(w, client.WatchFrame{Stream: id, Index: cursor, Next: cursor, Final: true}, sse, false)
			flusher.Flush()
			return
		}
		flusher.Flush()
	}
}

// WatchPreamble starts a /watch feed: it answers 500 when w cannot
// stream and returns nil; otherwise it writes the feed's headers and
// status 200, then for SSE the line ": "+comment, which commits the
// headers so the subscriber knows it is attached before the first
// detection settles, and flushes. Every server that answers /watch starts
// its feed here.
func WatchPreamble(w http.ResponseWriter, sse bool, comment string) http.Flusher {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, &client.APIError{
			Status:  http.StatusInternalServerError,
			Code:    client.CodeInternal,
			Message: "response writer does not support streaming",
		})
		return nil
	}
	h := w.Header()
	if sse {
		h.Set("Content-Type", "text/event-stream")
	} else {
		h.Set("Content-Type", "application/x-ndjson")
	}
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // proxies must not coalesce frames
	w.WriteHeader(http.StatusOK)
	if sse {
		fmt.Fprintf(w, ": %s\n\n", comment)
	}
	flusher.Flush()
	return flusher
}

// WatchQuery reads a watch request's resume cursor and format: ?since=N,
// else the SSE replay header (Last-Event-ID: M means since = M+1), and
// ?format= (sse, the default, or ndjson). A non-nil error is the 400 to
// answer. Every server that answers /watch parses the request here.
func WatchQuery(r *http.Request) (since int, sse bool, apiErr *client.APIError) {
	q := r.URL.Query()
	if raw := q.Get("since"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return 0, false, BadRequest(fmt.Sprintf("bad ?since=%q: want a non-negative integer", raw))
		}
		since = n
	} else if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		n, err := strconv.Atoi(lei)
		if err != nil || n < 0 {
			return 0, false, BadRequest(fmt.Sprintf("bad Last-Event-ID %q: want a non-negative integer", lei))
		}
		// Resume after M without wrapping: M = MaxInt overshoots every
		// transcript, so it replays nothing, like any overshot ?since=.
		since = n
		if n < math.MaxInt {
			since = n + 1
		}
	}
	switch format := q.Get("format"); format {
	case "", "sse":
		sse = true
	case "ndjson":
	default:
		return 0, false, BadRequest(fmt.Sprintf("bad ?format=%q: want sse or ndjson", format))
	}
	return since, sse, nil
}

// WriteFrame renders one frame in the negotiated format. Detection frames
// carry the transcript index as the SSE event id (the resume token); the
// terminal Final frame does not advance Last-Event-ID. Returns false when
// the connection is gone.
func WriteFrame(w io.Writer, f client.WatchFrame, sse, withID bool) bool {
	raw, err := json.Marshal(f)
	if err != nil {
		return false
	}
	if sse {
		if withID {
			if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", f.Index, raw); err != nil {
				return false
			}
			return true
		}
		_, err = fmt.Fprintf(w, "data: %s\n\n", raw)
		return err == nil
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err == nil
}
