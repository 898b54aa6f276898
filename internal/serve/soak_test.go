package serve_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/serve/servetest"
	"etsc/internal/stream"
)

// TestSoak is the shed-policy chaos battery: a live server abused the way
// production abuses it — bursty pushers on the healthy streams, three
// watchers per healthy stream (one that disconnects and resumes at its
// cursor, a slow one, one that stalls cold mid-feed), and one stream whose
// classifier cannot keep up with its unpaced pusher. It holds the server
// to four contracts:
//   - every watcher's transcript is byte-identical to its stream's DELETE
//     report;
//   - healthy streams take zero 429s and shed or drop no batch;
//   - the abused stream sheds at least one batch;
//   - /metrics passes the exposition lint and carries the hub-wide and
//     per-stream shed families.
func TestSoak(t *testing.T) {
	const (
		healthy, points, abuseBatches = 4, 3_000, 48
		batchSize                     = 64
		abuseID                       = "abuse-0"
	)
	kinds := servetest.DemoKinds(t)
	// At 2 ms per decision the abused stream drains far slower than its
	// pusher fills a 16-batch queue, so Shed has batches to evict.
	served := slices.Concat(kinds, []hub.Kind{servetest.SlowKind(2 * time.Millisecond)})
	ts := servetest.New(t, hub.Config{Workers: 4, QueueDepth: 16, Policy: hub.Shed}, served)
	ts.Hub.SetMetrics(ts.Srv.EnableMetrics(nil))
	// Retries smooth transient transport faults on the idempotent calls
	// (watch reconnects, detections, DELETE). Pushes are never retried, so
	// shed accounting stays exact.
	c, err := client.New(ts.HTTP.URL, client.WithRetry(4, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	gens, err := hub.DemoStreams(kinds, 3, healthy, points)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gens {
		if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: g.ID, Kind: g.Kind}); err != nil {
			t.Fatalf("create %s: %v", g.ID, err)
		}
	}
	if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: abuseID, Kind: "slow"}); err != nil {
		t.Fatalf("create %s: %v", abuseID, err)
	}

	// The flaky watcher's state is the reconnect-vs-delete handshake; the
	// slow and stalled watchers never reconnect, so theirs only paces them.
	type watcher struct {
		role           string
		reconnectEvery int
		st             *watcherState
		out            chan []stream.Detection
	}
	slow := func(int) { time.Sleep(2 * time.Millisecond) }
	stalled := func(delivered int) {
		if delivered == 1 {
			time.Sleep(300 * time.Millisecond) // go quiet mid-feed; the server must not care
		}
	}
	watchers := make(map[string][]*watcher, healthy)
	for _, g := range gens {
		for _, w := range []*watcher{
			{role: "flaky", reconnectEvery: 3, st: &watcherState{}},
			{role: "slow", st: &watcherState{pause: slow}},
			{role: "stalled", st: &watcherState{pause: stalled}},
		} {
			w.out = make(chan []stream.Detection, 1)
			go func(id string) { w.out <- watchTranscript(t, c, id, w.reconnectEvery, w.st) }(g.ID)
			watchers[g.ID] = append(watchers[g.ID], w)
		}
	}

	// Bursty pushers on the healthy streams: paced, but every seventh
	// batch follows its predecessor back to back. Under the shed policy
	// none of this may be rejected. The abuser pushes unpaced.
	var healthyRejected atomic.Int64
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batchNo := 0
			for off := 0; off < len(g.Data); off += batchSize {
				end := min(off+batchSize, len(g.Data))
				if _, err := c.Push(ctx, g.ID, g.Data[off:end]); err != nil {
					if client.IsBackpressure(err) {
						healthyRejected.Add(1)
						continue
					}
					t.Errorf("push %s: %v", g.ID, err)
					return
				}
				batchNo++
				if batchNo%7 != 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		data := make([]float64, batchSize)
		for i := range data {
			data[i] = float64(i % 5)
		}
		for range abuseBatches {
			if _, err := c.Push(ctx, abuseID, data); err != nil {
				t.Errorf("push %s: %v", abuseID, err)
				return
			}
		}
	}()
	wg.Wait()
	ts.Flush()

	// Scrape while every stream is still attached, so the per-stream shed
	// family is visible; scrape lints the exposition format.
	body := scrape(t, ts.HTTP.URL)
	mustContain(t, body, "etsc_hub_shed_batches_total",
		fmt.Sprintf("etsc_stream_shed_batches_total{stream=%q}", abuseID))

	for _, g := range gens {
		settled, err := c.Detections(ctx, g.ID, 1_000_000_000) // clamped: Next == settled
		if err != nil {
			t.Fatal(err)
		}
		ws := watchers[g.ID]
		ws[0].st.await(t, settled.Next)
		rep, err := c.DeleteStream(ctx, g.ID)
		if err != nil {
			t.Fatalf("delete %s: %v", g.ID, err)
		}
		want := detJSON(t, rep.Detections)
		for _, w := range ws {
			if got := <-w.out; detJSON(t, got) != want {
				t.Errorf("%s watcher on %s: transcript diverges from the final report (%d vs %d detections)",
					w.role, g.ID, len(got), len(rep.Detections))
			}
		}
		if rep.Stats.ShedBatches != 0 || rep.Stats.DroppedBatches != 0 {
			t.Errorf("healthy stream %s shed %d / dropped %d batches", g.ID, rep.Stats.ShedBatches, rep.Stats.DroppedBatches)
		}
		t.Logf("stream %-12s %5d points, %3d detections", g.ID, rep.Stats.Position, len(rep.Detections))
	}

	rep, err := c.DeleteStream(ctx, abuseID)
	if err != nil {
		t.Fatalf("delete %s: %v", abuseID, err)
	}
	t.Logf("stream %-12s %5d points, shed %d batches (%d points)",
		abuseID, rep.Stats.Position, rep.Stats.ShedBatches, rep.Stats.ShedPoints)
	if rep.Stats.ShedBatches == 0 {
		t.Errorf("abused stream %s shed nothing: the overload never bit", abuseID)
	}
	if n := healthyRejected.Load(); n != 0 {
		t.Errorf("%d ingest rejections on healthy streams under the shed policy", n)
	}
	ts.CloseHub(t)
}
