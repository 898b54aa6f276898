package router

// The kill-a-backend chaos battery — the tentpole proof. A real loopback
// router fronts three real backend processes (own hubs, own listeners,
// fast background checkpointers into a shared root). Bursty pushers
// drive every stream through the router with positioned pushes
// (at-least-once redelivery: on any failure they re-send from the
// stream's reported watermark). Mid-traffic one backend is killed the
// hard way — checkpointer stopped without a final sync, listener severed
// — and the battery asserts the full recovery story:
//
//   - the prober declares the backend dead and re-registers its streams
//     on the survivors from the shared checkpoint storage;
//   - pushers ride through on structured 503s + retry and watermark
//     rewinds, with zero manual intervention;
//   - every final transcript, fetched through the router, is
//     byte-identical to hub.Reference over the full series — exactly-once
//     ingest and zero duplicate or lost detections, despite the crash
//     having eaten any post-checkpoint state.
//
// Run under -race in CI (the named router-chaos step).

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/placement"
)

func TestChaosKillBackend(t *testing.T) {
	f := newFleet(t, 3, fleetOpts{
		checkpoints:   true,
		ckptInterval:  40 * time.Millisecond,
		probeInterval: 20 * time.Millisecond,
		failThreshold: 2,
		routeWait:     5 * time.Second,
	})
	streams := fleetStreams(t, f, 6, 2400)
	ctx := context.Background()

	// The victim is stream 0's home; at 6 streams over 3 backends it owns
	// at least one stream, usually two.
	victimIdx := placement.Index(streams[0].ID, 3)
	victim := f.backends[victimIdx]
	var victimStreams int
	for _, ds := range streams {
		if placement.Index(ds.ID, 3) == victimIdx {
			victimStreams++
		}
	}
	t.Logf("victim %s owns %d/%d streams", victim.name, victimStreams, len(streams))

	// Warm-up: push a prefix everywhere and let at least two checkpoint
	// generations capture it, so the victim's streams are on disk.
	for _, ds := range streams {
		if _, err := f.c.PushAt(ctx, ds.ID, 0, ds.Data[:256]); err != nil {
			t.Fatal(err)
		}
	}
	f.flushAlive(nil)
	time.Sleep(120 * time.Millisecond)

	// Bursty pushers with at-least-once redelivery: positioned pushes, and
	// on any error a rewind to the stream's reported watermark. CodeGap is
	// the expected post-recovery signal (the survivor restored a slightly
	// stale checkpoint); anything else gets a bounded number of retries on
	// top of the client's own backoff. Each pusher holds its final batch
	// until the kill has returned, so the kill always lands mid-traffic: a
	// pusher that finished first would never learn that batches acknowledged
	// within the last checkpoint interval died with the victim.
	killed := make(chan struct{})
	var wg sync.WaitGroup
	for _, ds := range streams {
		wg.Add(1)
		go func(ds hub.DemoStream) {
			defer wg.Done()
			const batch = 48
			deadline := time.Now().Add(60 * time.Second)
			at := 256
			for at < len(ds.Data) {
				if time.Now().After(deadline) {
					t.Errorf("pusher %s timed out at position %d", ds.ID, at)
					return
				}
				end := at + batch
				if end >= len(ds.Data) {
					end = len(ds.Data)
					<-killed
				}
				_, err := f.c.PushAt(ctx, ds.ID, at, ds.Data[at:end])
				if err == nil {
					at = end
					continue
				}
				// Redeliver from the watermark. The info read itself rides
				// the same retry/failover path.
				info, ierr := f.c.Stream(ctx, ds.ID)
				if ierr != nil {
					time.Sleep(50 * time.Millisecond)
					continue
				}
				if !client.IsCode(err, client.CodeGap) {
					t.Logf("pusher %s at %d: %v (rewinding to %d)", ds.ID, at, err, info.Stats.Position)
				}
				at = info.Stats.Position
			}
		}(ds)
	}

	// Let the pushers get into the middle of their series, then kill.
	time.Sleep(150 * time.Millisecond)
	t.Logf("killing %s", victim.name)
	victim.kill()
	close(killed)
	f.waitDead(victimIdx)

	wg.Wait()
	dead := map[int]bool{victimIdx: true}
	f.flushAlive(dead)

	// Every victim stream must have been re-registered on a survivor —
	// the deterministic one: placement over the alive subset in table
	// order.
	aliveNames := []string{}
	for i, b := range f.backends {
		if !dead[i] {
			aliveNames = append(aliveNames, b.name)
		}
	}
	for _, ds := range streams {
		if placement.Index(ds.ID, 3) != victimIdx {
			continue
		}
		wantName := aliveNames[placement.Index(ds.ID, len(aliveNames))]
		got := f.rt.resolve(ds.ID)
		if got.name != wantName {
			t.Errorf("recovered stream %s routes to %q, want deterministic survivor %q",
				ds.ID, got.name, wantName)
		}
	}

	// The money assertion: final transcripts through the router are
	// byte-identical to the serial oracle over the complete series —
	// exactly-once despite crash, redelivery, and failover.
	for _, ds := range streams {
		rep, err := f.c.DeleteStream(ctx, ds.ID)
		if err != nil {
			t.Fatalf("delete %s: %v", ds.ID, err)
		}
		if rep.Stats.Position != len(ds.Data) {
			t.Errorf("stream %s final position %d, want %d", ds.ID, rep.Stats.Position, len(ds.Data))
		}
		want, err := hub.Reference(ds.Config, ds.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Detections, want) {
			t.Errorf("stream %s transcript diverged from oracle after crash recovery:\n got %d detections %+v\nwant %d detections %+v",
				ds.ID, len(rep.Detections), rep.Detections, len(want), want)
		}
		seen := map[int]bool{}
		for _, d := range rep.Detections {
			if seen[d.Start] {
				t.Errorf("stream %s has duplicate detection at start %d", ds.ID, d.Start)
			}
			seen[d.Start] = true
		}
	}
}
