// GET /v1/streams/{id}/watch through the router: a live pass-through
// subscription that survives the two events a single backend cannot —
// migration of the stream to another backend, and death of the owner —
// while keeping the exactly-once resume contract intact. The router holds
// the subscriber-facing cursor itself: whatever happens behind it, the
// frames it emits carry contiguous transcript indexes from the client's
// since onward, each index exactly once, so the subscriber cannot tell a
// rebalanced fleet from a single quiet node.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"etsc/internal/client"
)

func (rt *Router) v1Watch(w http.ResponseWriter, r *http.Request, id string) {
	since := 0
	if raw := r.URL.Query().Get("since"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeAPIError(w, badRequest(fmt.Sprintf("bad ?since=%q: want a non-negative integer", raw)))
			return
		}
		since = n
	} else if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		n, err := strconv.Atoi(lei)
		if err != nil || n < 0 {
			writeAPIError(w, badRequest(fmt.Sprintf("bad Last-Event-ID %q: want a non-negative integer", lei)))
			return
		}
		// Resume after M without wrapping: M = MaxInt overshoots every
		// transcript, so it replays nothing, like any overshot ?since=.
		since = n
		if n < math.MaxInt {
			since = n + 1
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeAPIError(w, &client.APIError{
			Status:  http.StatusInternalServerError,
			Code:    client.CodeInternal,
			Message: "response writer does not support streaming",
		})
		return
	}

	ctx := r.Context()
	// First subscribe before committing headers, so a missing stream (or a
	// fleet-wide outage) still gets the structured error envelope.
	b, ws, apiErr := rt.subscribe(ctx, id, since)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	defer func() { ws.Close() }()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.Header().Set(client.BackendHeader, b.name)
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": watch %s since=%d via %s\n\n", id, since, b.name)
	flusher.Flush()

	cursor := since
	for {
		f, err := ws.Next()
		if err != nil {
			// The owner went away mid-feed (death, or its side of a
			// migration being torn down). Re-resolve and resume at the
			// subscriber cursor; the structured 503 path inside subscribe
			// already waited out recovery.
			ws.Close()
			b, ws, apiErr = rt.subscribe(ctx, id, cursor)
			if apiErr != nil {
				// Stream is genuinely gone (or the fleet is): end the feed
				// cleanly rather than hang the subscriber.
				writeRouterFrame(w, client.WatchFrame{Stream: id, Index: cursor, Next: cursor, Final: true}, false)
				flusher.Flush()
				return
			}
			continue
		}
		if f.Final {
			// Final from a backend is ambiguous behind a router: the stream
			// may be deleted (real final) or mid-migration (its old copy
			// torn down). Taking the gate shared blocks until any in-flight
			// migration finishes, then one routed lookup disambiguates.
			g := rt.gate(id)
			g.RLock()
			lookupErr := rt.lookupStream(ctx, id)
			g.RUnlock()
			if lookupErr != nil {
				writeRouterFrame(w, f, false)
				flusher.Flush()
				return
			}
			// Migrated: re-subscribe on the new owner at the cursor and
			// keep going without surfacing anything.
			ws.Close()
			b, ws, apiErr = rt.subscribe(ctx, id, cursor)
			if apiErr != nil {
				writeRouterFrame(w, client.WatchFrame{Stream: id, Index: cursor, Next: cursor, Final: true}, false)
				flusher.Flush()
				return
			}
			continue
		}
		// Dedup across resubscribes: a recovered-from-checkpoint owner can
		// replay settled detections the subscriber already has. Transcripts
		// are deterministic, so same index means same detection — skip.
		if f.Index < cursor {
			continue
		}
		out := client.WatchFrame{Stream: id, Index: cursor, Next: cursor + 1, Detection: f.Detection}
		if !writeRouterFrame(w, out, true) {
			return
		}
		cursor++
		flusher.Flush()
	}
}

// subscribe routes id and opens a watch on its owner, translating errors
// into the structured envelope. Unknown stream and transport failures
// past the route wait both end the pass-through.
func (rt *Router) subscribe(ctx context.Context, id string, since int) (*backend, *client.WatchStream, *client.APIError) {
	b, apiErr := rt.route(id)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	ws, err := b.c.Watch(ctx, id, since)
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) {
			return nil, nil, ae
		}
		return nil, nil, &client.APIError{
			Status:  http.StatusServiceUnavailable,
			Code:    client.CodeUnavailable,
			Message: fmt.Sprintf("backend %q: %v", b.name, err),
		}
	}
	return b, ws, nil
}

// lookupStream routes id and asks its owner whether the stream exists.
func (rt *Router) lookupStream(ctx context.Context, id string) error {
	b, apiErr := rt.route(id)
	if apiErr != nil {
		return apiErr
	}
	_, err := b.c.Stream(ctx, id)
	return err
}

// writeRouterFrame emits one SSE frame; detection frames carry the index
// as the event id (the resume token), Final frames do not.
func writeRouterFrame(w http.ResponseWriter, f client.WatchFrame, withID bool) bool {
	raw, err := json.Marshal(f)
	if err != nil {
		return false
	}
	if withID {
		_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", f.Index, raw)
	} else {
		_, err = fmt.Fprintf(w, "data: %s\n\n", raw)
	}
	return err == nil
}
