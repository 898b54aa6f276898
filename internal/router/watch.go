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
	"errors"
	"fmt"
	"net/http"

	"etsc/internal/client"
	"etsc/internal/serve"
)

func (rt *Router) v1Watch(w http.ResponseWriter, r *http.Request, id string) {
	since, sse, apiErr := serve.WatchQuery(r)
	if apiErr != nil {
		serve.WriteError(w, apiErr)
		return
	}
	ctx := r.Context()
	// First subscribe before committing headers, so a missing stream (or a
	// fleet-wide outage) still gets the structured error envelope.
	b, ws, apiErr := rt.subscribe(ctx, id, since)
	if apiErr != nil {
		serve.WriteError(w, apiErr)
		return
	}
	// A failed re-subscribe leaves ws nil.
	defer func() {
		if ws != nil {
			ws.Close()
		}
	}()

	w.Header().Set(client.BackendHeader, b.name)
	flusher := serve.WatchPreamble(w, sse, fmt.Sprintf("watch %s since=%d via %s", id, since, b.name))
	if flusher == nil {
		return
	}

	cursor := since
	for {
		f, err := ws.Next()
		if err != nil {
			if ctx.Err() != nil {
				return // the subscriber left; nobody reads a final frame
			}
			// The owner went away mid-feed (death, or its side of a
			// migration being torn down). Re-resolve and resume at the
			// subscriber cursor; the structured 503 path inside subscribe
			// already waited out recovery.
			ws.Close()
			b, ws, apiErr = rt.subscribe(ctx, id, cursor)
			if apiErr != nil {
				// Stream is genuinely gone (or the fleet is): end the feed
				// cleanly rather than hang the subscriber.
				serve.WriteFrame(w, client.WatchFrame{Stream: id, Index: cursor, Next: cursor, Final: true}, sse, false)
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
				serve.WriteFrame(w, f, sse, false)
				flusher.Flush()
				return
			}
			// Migrated: re-subscribe on the new owner at the cursor and
			// keep going without surfacing anything.
			ws.Close()
			b, ws, apiErr = rt.subscribe(ctx, id, cursor)
			if apiErr != nil {
				serve.WriteFrame(w, client.WatchFrame{Stream: id, Index: cursor, Next: cursor, Final: true}, sse, false)
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
		if !serve.WriteFrame(w, out, sse, true) {
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
		return nil, nil, serve.Unavailable(fmt.Sprintf("backend %q: %v", b.name, err))
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
