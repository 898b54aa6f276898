package router

import (
	"context"
	"path/filepath"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/placement"
	"etsc/internal/serve"
)

// RecoveryReport tallies one backend-death recovery pass.
type RecoveryReport struct {
	Backend   string `json:"backend"`
	Restored  int    `json:"restored"`  // clean snapshot restores
	Fallbacks int    `json:"fallbacks"` // state rejected → fresh re-attach
	Skipped   int    `json:"skipped"`   // undecodable checkpoint files
}

// recoverBackend re-registers a dead backend's streams on the survivors
// from shared checkpoint storage, read in name order by the reader the
// backend's own boot restore uses (serve.ReadCheckpoints), via the same
// ladder: clean restore when the state frame is accepted, fresh re-attach
// with the checkpointed kind/spec when it is rejected, skip when the file
// does not read or decode. Each recovered stream gets a placement
// override pointing at its survivor — chosen by placement over the alive
// subset in table order, so a concurrent or restarted router picks the
// identical target.
//
// A checkpoint is a slightly stale cut, so a recovered stream resumes at
// its checkpointed watermark; pushers using positioned pushes (PushAt)
// redeliver from there and the watermark contract dedups the overlap.
func (rt *Router) recoverBackend(dead *backend) RecoveryReport {
	rep := RecoveryReport{Backend: dead.name}
	if rt.cfg.CheckpointRoot == "" {
		rt.logf("router: no checkpoint root; streams on %q stay unavailable until it returns", dead.name)
		return rep
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := serve.ReadCheckpoints(filepath.Join(rt.cfg.CheckpointRoot, dead.name), func(name string, meta serve.CheckpointMeta, err error) {
		if err != nil {
			rt.logf("router: recover %q: skip %s: %v", dead.name, name, err)
			rep.Skipped++
			return
		}
		switch rt.recoverStream(ctx, meta) {
		case recoverRestored:
			rep.Restored++
		case recoverFallback:
			rep.Fallbacks++
		default:
			rep.Skipped++
		}
	})
	if err != nil {
		rt.logf("router: recover %q: %v", dead.name, err)
		return rep
	}
	rt.mRecovered.Add(float64(rep.Restored))
	rt.mFallbacks.Add(float64(rep.Fallbacks))
	rt.mSkipped.Add(float64(rep.Skipped))
	rt.logf("router: recovered %q: %d restored, %d fallbacks, %d skipped",
		dead.name, rep.Restored, rep.Fallbacks, rep.Skipped)
	return rep
}

type recoverOutcome int

const (
	recoverSkipped recoverOutcome = iota
	recoverRestored
	recoverFallback
)

// recoverStream places one checkpointed stream on a survivor. The ladder
// mirrors a backend boot: snapshot restore first; CodeBadSnapshot →
// fresh attach with the checkpointed configuration (transcript lost, the
// stream lives on); CodeDuplicateStream at either rung → the stream is
// already registered somewhere alive (raced with another recovery path or
// was never solely on the dead backend), counted as restored.
func (rt *Router) recoverStream(ctx context.Context, meta serve.CheckpointMeta) recoverOutcome {
	table := *rt.table.Load()
	alive := aliveBackends(table)
	if len(alive) == 0 {
		rt.logf("router: recover %q: no survivor available", meta.ID)
		return recoverSkipped
	}
	target := alive[placement.Index(meta.ID, len(alive))]
	// No gate here, deliberately: requests for this stream are parked in
	// route()'s wait loop (some holding the gate shared) until the
	// override appears, and none can reach the survivor before then —
	// taking the gate exclusively would deadlock recovery against the
	// very requests waiting for it.
	snap := client.StreamSnapshot{
		ID: meta.ID, Kind: meta.Kind, Spec: meta.Spec, Engine: meta.Engine,
		State: meta.State,
	}
	if _, pos, err := hub.SnapshotInfo(meta.State); err == nil {
		snap.Position = pos
	}
	_, err := target.c.RestoreStream(ctx, snap)
	switch {
	case err == nil:
		rt.installRecovered(meta.ID, target, table)
		return recoverRestored
	case client.IsCode(err, client.CodeDuplicateStream):
		rt.logf("router: recover %q: already registered; leaving placement as is", meta.ID)
		return recoverRestored
	case client.IsCode(err, client.CodeBadSnapshot):
		// Fall through to the fresh-attach rung.
	default:
		rt.logf("router: recover %q on %q: %v", meta.ID, target.name, err)
		return recoverSkipped
	}
	_, err = target.c.CreateStream(ctx, client.CreateStreamRequest{
		ID: meta.ID, Kind: meta.Kind, Spec: meta.Spec, Engine: meta.Engine,
	})
	switch {
	case err == nil:
		rt.installRecovered(meta.ID, target, table)
		rt.logf("router: recover %q: state rejected, re-attached fresh on %q", meta.ID, target.name)
		return recoverFallback
	case client.IsCode(err, client.CodeDuplicateStream):
		return recoverRestored
	default:
		rt.logf("router: recover %q fallback on %q: %v", meta.ID, target.name, err)
		return recoverSkipped
	}
}

// installRecovered records where a recovered stream landed: an override
// when the survivor is not the stream's hash home, or a cleared override
// when it is (the home itself may have been the survivor for streams that
// were already overridden onto the now-dead backend).
func (rt *Router) installRecovered(id string, target *backend, table []*backend) {
	if table[home(id, table)] == target {
		rt.setOverride(id, "")
	} else {
		rt.setOverride(id, target.name)
	}
}
