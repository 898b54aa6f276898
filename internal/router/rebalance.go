package router

import (
	"context"
	"fmt"
	"time"

	"etsc/internal/client"
)

// RebalanceReport tallies one rebalance pass.
type RebalanceReport struct {
	Examined int             `json:"examined"`
	Moved    int             `json:"moved"`
	Failed   int             `json:"failed"`
	Moves    []RebalanceMove `json:"moves,omitempty"`
}

// RebalanceMove records one stream migration.
type RebalanceMove struct {
	Stream string `json:"stream"`
	From   string `json:"from"`
	To     string `json:"to"`
	Error  string `json:"error,omitempty"`
}

// Rebalance converges every stream back onto its hash home: it lists the
// streams on each alive backend, and any stream not sitting on
// table[placement.Index(id, N)] (with the home alive) is migrated there
// one at a time. Single-flighted; a second concurrent call waits its
// turn and re-examines.
func (rt *Router) Rebalance(ctx context.Context) RebalanceReport {
	rt.opMu.Lock()
	defer rt.opMu.Unlock()
	var rep RebalanceReport
	table := *rt.table.Load()
	for _, b := range table {
		if !b.alive.Load() {
			continue
		}
		streams, err := b.c.Streams(ctx)
		if err != nil {
			rt.logf("router: rebalance: list %q: %v", b.name, err)
			continue
		}
		for _, si := range streams {
			rep.Examined++
			target := table[home(si.ID, table)]
			if target == b {
				// Already home; drop any stale override left by recovery.
				rt.setOverride(si.ID, "")
				continue
			}
			if !target.alive.Load() {
				continue // home is down; leave the stream where it is
			}
			move := RebalanceMove{Stream: si.ID, From: b.name, To: target.name}
			if err := rt.migrate(ctx, si.ID, b, target); err != nil {
				move.Error = err.Error()
				rep.Failed++
				rt.logf("router: rebalance %q %s→%s: %v", si.ID, b.name, target.name, err)
			} else {
				rep.Moved++
				rt.mMoves.Inc()
			}
			rep.Moves = append(rep.Moves, move)
		}
	}
	return rep
}

// migrate moves one stream from one backend to another with transcripts
// invariant. The stream's gate is held exclusively for the whole move, so
// proxied pushes wait rather than land on either side mid-flight:
//
//  1. drain — poll the old owner until the stream's queue is empty.
//     Pushes are gated, so the queue only shrinks; the hub's export cuts
//     at a batch boundary, so a drained queue means a complete cut.
//  2. snapshot — GET the durable state off the old owner.
//  3. restore — POST it to the new owner. A duplicate there is stale
//     state from an earlier life (e.g. a backend that died and rejoined):
//     delete the stale copy and restore again.
//  4. delete the old copy (its final report is discarded — the transcript
//     lives on inside the moved state).
//  5. repoint — install the override (or clear it when the target is the
//     stream's hash home).
//
// On failure before step 4 the stream is untouched on the old owner and
// keeps serving; failure at step 4 leaves a benign orphan that the next
// rebalance pass re-examines.
func (rt *Router) migrate(ctx context.Context, id string, from, to *backend) error {
	g := rt.gate(id)
	g.Lock()
	defer g.Unlock()

	if err := rt.drainQueue(ctx, id, from); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	snap, err := from.c.SnapshotStream(ctx, id)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := to.c.RestoreStream(ctx, snap); err != nil {
		if !client.IsCode(err, client.CodeDuplicateStream) {
			return fmt.Errorf("restore on %q: %w", to.name, err)
		}
		if _, err := to.c.DeleteStream(ctx, id); err != nil {
			return fmt.Errorf("evict stale copy on %q: %w", to.name, err)
		}
		if _, err := to.c.RestoreStream(ctx, snap); err != nil {
			return fmt.Errorf("restore on %q after evict: %w", to.name, err)
		}
	}
	if _, err := from.c.DeleteStream(ctx, id); err != nil {
		rt.logf("router: migrate %q: old copy on %q not deleted: %v", id, from.name, err)
	}
	table := *rt.table.Load()
	if table[home(id, table)] == to {
		rt.setOverride(id, "")
	} else {
		rt.setOverride(id, to.name)
	}
	return nil
}

// drainQueue polls the stream's stats on b until QueuedBatches reaches
// zero. With pushes gated, the queue is strictly draining; the drain
// worker yields only at batch boundaries, so zero queued means every
// accepted batch is fully applied and the next export is a complete cut.
func (rt *Router) drainQueue(ctx context.Context, id string, b *backend) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		si, err := b.c.Stream(ctx, id)
		if err != nil {
			return err
		}
		if si.Stats.QueuedBatches == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stream %q still has %d queued batches", id, si.Stats.QueuedBatches)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// SetBackends replaces the placement table and rebalances onto it.
// Unchanged entries (same name and URL) keep their probe state; new
// entries start presumed-alive. Streams are then migrated to their new
// hash homes, so a table change is a live resharding.
func (rt *Router) SetBackends(specs []BackendSpec) (RebalanceReport, error) {
	if len(specs) == 0 {
		return RebalanceReport{}, fmt.Errorf("router: no backends")
	}
	rt.opMu.Lock()
	prev := *rt.table.Load()
	table, err := rt.buildTable(specs, prev)
	if err != nil {
		rt.opMu.Unlock()
		return RebalanceReport{}, err
	}
	rt.table.Store(&table)
	rt.opMu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return rt.Rebalance(ctx), nil
}
