package router

// Rebalancing proofs: a stream migrated between backends mid-traffic
// keeps a transcript byte-identical to the serial oracle, a live watcher
// rides through the move without duplicates or gaps, and a table change
// re-homes streams onto the new table.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/serve"
	"etsc/internal/serve/servetest"
)

// TestMigrateUnderTraffic moves every stream off its home backend and
// back while pushers are mid-flight. Pushes block on the stream's gate
// during each move, so nothing lands on the wrong side; the final
// transcripts must equal hub.Reference over the full series.
func TestMigrateUnderTraffic(t *testing.T) {
	f := newFleet(t, 3, fleetOpts{})
	streams := fleetStreams(t, f, 3, 2400)
	ctx := context.Background()

	// Watcher on stream 0 rides through both moves.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	ws, err := f.c.Watch(wctx, streams[0].ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	watched := make(chan []int, 1)
	go func() {
		var idx []int
		for {
			fr, err := ws.Next()
			if err != nil || fr.Final {
				watched <- idx
				return
			}
			idx = append(idx, fr.Index)
		}
	}()

	var wg sync.WaitGroup
	for _, ds := range streams {
		wg.Add(1)
		go func(ds hub.DemoStream) {
			defer wg.Done()
			for at := 0; at < len(ds.Data); at += 64 {
				end := at + 64
				if end > len(ds.Data) {
					end = len(ds.Data)
				}
				if _, err := f.c.PushAt(ctx, ds.ID, at, ds.Data[at:end]); err != nil {
					t.Errorf("push %s at %d: %v", ds.ID, at, err)
					return
				}
			}
		}(ds)
	}

	// While pushers run, bounce every stream: home → next backend → home.
	table := *f.rt.table.Load()
	for _, ds := range streams {
		from := table[home(ds.ID, table)]
		to := table[(home(ds.ID, table)+1)%len(table)]
		if err := f.rt.migrate(ctx, ds.ID, from, to); err != nil {
			t.Fatalf("migrate %s %s→%s: %v", ds.ID, from.name, to.name, err)
		}
		// The override must now route to the new owner.
		if got := f.rt.resolve(ds.ID); got != to {
			t.Fatalf("after migrate, %s resolves to %q, want %q", ds.ID, got.name, to.name)
		}
		if err := f.rt.migrate(ctx, ds.ID, to, from); err != nil {
			t.Fatalf("migrate back %s: %v", ds.ID, err)
		}
		if ov := f.rt.overrides.Load(); ov != nil {
			if _, hasOv := (*ov)[ds.ID]; hasOv {
				t.Fatalf("stream %s still overridden after moving home", ds.ID)
			}
		}
	}
	wg.Wait()
	f.flushAlive(nil)

	for _, ds := range streams {
		rep, err := f.c.DeleteStream(ctx, ds.ID)
		if err != nil {
			t.Fatalf("delete %s: %v", ds.ID, err)
		}
		want, err := hub.Reference(ds.Config, ds.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Detections, want) {
			t.Errorf("stream %s transcript diverged after two migrations:\n got %+v\nwant %+v",
				ds.ID, rep.Detections, want)
		}
		if rep.Stats.Position != len(ds.Data) {
			t.Errorf("stream %s position %d, want %d", ds.ID, rep.Stats.Position, len(ds.Data))
		}
	}

	// The watcher saw each settled index exactly once, in order.
	idx := <-watched
	for i, v := range idx {
		if v != i {
			t.Fatalf("watcher index %d carries %d: duplicates or gaps across the migration", i, v)
		}
	}
}

// TestAdminRebalance pins the admin surface: recovery-style overrides are
// converged back to pure-hash placement by POST /admin/rebalance, moving
// only what is misplaced.
func TestAdminRebalance(t *testing.T) {
	f := newFleet(t, 3, fleetOpts{})
	streams := fleetStreams(t, f, 6, 2400)
	ctx := context.Background()
	for _, ds := range streams {
		if _, err := f.c.PushAt(ctx, ds.ID, 0, ds.Data[:300]); err != nil {
			t.Fatal(err)
		}
	}
	// Displace two streams by hand (the shape a death recovery leaves).
	table := *f.rt.table.Load()
	displaced := streams[:2]
	for _, ds := range displaced {
		from := table[home(ds.ID, table)]
		to := table[(home(ds.ID, table)+1)%len(table)]
		if err := f.rt.migrate(ctx, ds.ID, from, to); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Post(f.http.URL+"/admin/rebalance", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance = %d", resp.StatusCode)
	}
	rep := f.rt.Rebalance(ctx) // second pass: everything already home
	if rep.Moved != 0 {
		t.Fatalf("second rebalance moved %d streams, want 0: %+v", rep.Moved, rep.Moves)
	}
	if ov := f.rt.overrides.Load(); ov != nil && len(*ov) != 0 {
		t.Fatalf("overrides survive a full rebalance: %v", *ov)
	}
	for _, ds := range streams {
		if _, err := f.homeOf(ds.ID).c.Stream(ctx, ds.ID); err != nil {
			t.Errorf("stream %s not back home: %v", ds.ID, err)
		}
	}
	// Traffic still flows and transcripts still match the oracle.
	for _, ds := range streams {
		for at := 300; at < len(ds.Data); at += 100 {
			end := at + 100
			if end > len(ds.Data) {
				end = len(ds.Data)
			}
			if _, err := f.c.PushAt(ctx, ds.ID, at, ds.Data[at:end]); err != nil {
				t.Fatalf("push %s after rebalance: %v", ds.ID, err)
			}
		}
	}
	f.flushAlive(nil)
	for _, ds := range streams {
		rep, err := f.c.DeleteStream(ctx, ds.ID)
		if err != nil {
			t.Fatal(err)
		}
		want, err := hub.Reference(ds.Config, ds.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Detections, want) {
			t.Errorf("stream %s transcript diverged across rebalance", ds.ID)
		}
	}
}

// TestSetBackendsResharding grows the table under live streams: the swap
// migrates every stream onto its new hash home and the fleet keeps
// serving with transcripts intact.
func TestSetBackendsResharding(t *testing.T) {
	f := newFleet(t, 2, fleetOpts{})
	streams := fleetStreams(t, f, 4, 2400)
	ctx := context.Background()
	for _, ds := range streams {
		if _, err := f.c.PushAt(ctx, ds.ID, 0, ds.Data[:400]); err != nil {
			t.Fatal(err)
		}
	}

	// Boot a third backend and swap the table to include it.
	kinds := servetest.DemoKinds(t)
	h, err := hub.New(hub.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(h, kinds)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	nb := &fleetBackend{name: backendName(2), hub: h, srv: srv, http: hs}
	if nb.c, err = client.New(hs.URL); err != nil {
		t.Fatal(err)
	}
	f.backends = append(f.backends, nb)

	specs := make([]BackendSpec, 3)
	for i, b := range f.backends {
		specs[i] = BackendSpec{Name: b.name, URL: b.http.URL}
	}
	rep, err := f.rt.SetBackends(specs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("resharding failed moves: %+v", rep.Moves)
	}

	// Every stream now sits on its 3-way hash home, and traffic lands there.
	table := *f.rt.table.Load()
	if len(table) != 3 {
		t.Fatalf("table size %d after swap, want 3", len(table))
	}
	for _, ds := range streams {
		wantB := table[home(ds.ID, table)]
		if _, err := wantB.c.Stream(ctx, ds.ID); err != nil {
			t.Errorf("stream %s not on 3-way home %q: %v", ds.ID, wantB.name, err)
		}
		resp, err := f.c.PushAt(ctx, ds.ID, 400, ds.Data[400:500])
		if err != nil {
			t.Fatal(err)
		}
		if resp.Backend != wantB.name {
			t.Errorf("stream %s pushed via %q, want %q", ds.ID, resp.Backend, wantB.name)
		}
	}

	for _, ds := range streams {
		for at := 500; at < len(ds.Data); at += 100 {
			end := at + 100
			if end > len(ds.Data) {
				end = len(ds.Data)
			}
			if _, err := f.c.PushAt(ctx, ds.ID, at, ds.Data[at:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.flushAlive(nil)
	for _, ds := range streams {
		rep, err := f.c.DeleteStream(ctx, ds.ID)
		if err != nil {
			t.Fatal(err)
		}
		want, err := hub.Reference(ds.Config, ds.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Detections, want) {
			t.Errorf("stream %s transcript diverged across resharding", ds.ID)
		}
	}
}

// hookTransport runs before on every backend call, then sends it.
type hookTransport struct{ before func(*http.Request) }

func (h hookTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h.before(r)
	return http.DefaultTransport.RoundTrip(r)
}

// TestRebalanceKeepsLiveCopyOverStaleHome pins that Rebalance serves a
// displaced stream from its live copy until the migration home replaces
// the stale copy there. The stream's home comes first in table order and
// holds a stale copy, the shape a restarted home leaves after
// boot-restoring a checkpoint that death recovery already moved; the live
// copy sits on the survivor behind an override. A push that arrives while
// Rebalance lists the survivor must land on the survivor, and the override
// must still route there when the survivor's migration starts; the final
// DELETE must report every pushed point.
func TestRebalanceKeepsLiveCopyOverStaleHome(t *testing.T) {
	f := newFleet(t, 2, fleetOpts{})
	ctx := context.Background()
	var ds hub.DemoStream
	for _, s := range fleetStreams(t, f, 8, 2400) {
		if f.homeOf(s.ID) == f.backends[0] {
			ds = s
			break
		}
	}
	if ds.ID == "" {
		t.Fatal("no demo stream hashes to the first backend")
	}
	homeB, survivor := f.backends[0], f.backends[1]
	if _, err := f.c.PushAt(ctx, ds.ID, 0, ds.Data[:256]); err != nil {
		t.Fatal(err)
	}
	homeB.hub.Flush()

	var armed atomic.Bool
	var pushed client.PushResponse
	var pushErr error
	var drainRoute string
	var rt2 *Router
	var c2 *client.Client
	survivorHost := strings.TrimPrefix(survivor.http.URL, "http://")
	rt2, err := New(Config{
		Backends: []BackendSpec{{Name: homeB.name, URL: homeB.http.URL}, {Name: survivor.name, URL: survivor.http.URL}},
		HTTPClient: &http.Client{Transport: hookTransport{before: func(r *http.Request) {
			if !armed.Load() || r.Method != http.MethodGet || r.URL.Host != survivorHost {
				return
			}
			switch r.URL.Path {
			case "/v1/streams":
				pushed, pushErr = c2.Push(ctx, ds.ID, ds.Data[256:512])
				survivor.hub.Flush()
			case "/v1/streams/" + ds.ID:
				if drainRoute == "" {
					drainRoute = rt2.resolve(ds.ID).name
				}
			}
		}}},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(rt2)
	defer hs2.Close()
	if c2, err = client.New(hs2.URL); err != nil {
		t.Fatal(err)
	}

	// Move the live copy to the survivor, then put a stale copy back home.
	snap, err := homeB.c.SnapshotStream(ctx, ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	t2 := *rt2.table.Load()
	if err := rt2.migrate(ctx, ds.ID, t2[0], t2[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := homeB.c.RestoreStream(ctx, snap); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	rep := rt2.Rebalance(ctx)
	armed.Store(false)
	if rep.Failed != 0 || rep.Moved != 1 {
		t.Fatalf("rebalance report %+v, want one move and no failure", rep)
	}
	if pushErr != nil {
		t.Fatalf("push during rebalance: %v", pushErr)
	}
	if pushed.Backend != survivor.name {
		t.Errorf("push during rebalance answered by %q, want the live copy's %q", pushed.Backend, survivor.name)
	}
	if drainRoute != survivor.name {
		t.Errorf("override routed to %q when the survivor's migration began, want %q", drainRoute, survivor.name)
	}
	homeB.hub.Flush()
	final, err := c2.DeleteStream(ctx, ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Stats.Position != 512 {
		t.Errorf("final position %d, want 512: a push acknowledged during rebalance was lost", final.Stats.Position)
	}
}
