package serve_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"testing"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/serve"
	"etsc/internal/serve/servetest"
)

// TestV1EndToEndMatchesReference drives the full /v1 surface through the
// typed client — register, batch ingest, stats, cursor-paged detections,
// delete — for six streams over the three demo kinds, and pins every
// stream's final transcript equal to the serial hub.Reference oracle:
// serving over HTTP adds transport, not behaviour.
func TestV1EndToEndMatchesReference(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	srv := servetest.New(t, hub.Config{Workers: 4}, kinds)
	h, c := srv.Hub, srv.Client
	ctx := context.Background()

	const nStreams, minLen = 6, 2400
	gens, err := hub.DemoStreams(kinds, 3, nStreams, minLen)
	if err != nil {
		t.Fatal(err)
	}
	kindOf := map[string]hub.Kind{}
	for _, k := range kinds {
		kindOf[k.Name] = k
	}

	for i, g := range gens {
		kindName := kinds[i%len(kinds)].Name
		info, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: g.ID, Kind: kindName})
		if err != nil {
			t.Fatalf("create %s: %v", g.ID, err)
		}
		if info.ID != g.ID || info.Kind != kindName || info.Spec != kindOf[kindName].Spec.String() {
			t.Fatalf("create %s: info %+v", g.ID, info)
		}
	}

	// Batched ingest with per-stream seeded batch sizes, interleaved
	// round-robin so streams genuinely overlap in the pool.
	offsets := make([]int, len(gens))
	rngs := make([]*rand.Rand, len(gens))
	for i := range gens {
		rngs[i] = rand.New(rand.NewSource(int64(100 + i)))
	}
	var total int
	for {
		progressed := false
		for i, g := range gens {
			if offsets[i] >= len(g.Data) {
				continue
			}
			progressed = true
			n := 1 + rngs[i].Intn(127)
			if offsets[i]+n > len(g.Data) {
				n = len(g.Data) - offsets[i]
			}
			resp, err := c.Push(ctx, g.ID, g.Data[offsets[i]:offsets[i]+n])
			if err != nil {
				t.Fatalf("push %s: %v", g.ID, err)
			}
			if resp.Queued != n {
				t.Fatalf("push %s: queued %d, want %d", g.ID, resp.Queued, n)
			}
			offsets[i] += n
			total += n
		}
		if !progressed {
			break
		}
	}

	h.Flush()
	totals, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if totals.Streams != nStreams || totals.Points != int64(total) {
		t.Fatalf("stats %+v, want %d streams / %d points", totals, nStreams, total)
	}
	streams, err := c.Streams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != nStreams {
		t.Fatalf("Streams() returned %d entries, want %d", len(streams), nStreams)
	}

	for i, g := range gens {
		kind := kinds[i%len(kinds)]

		// Cursor pagination over the settled prefix, then verify the
		// cursor is exhausted (no new data → no new settles).
		first, err := c.Detections(ctx, g.ID, 0)
		if err != nil {
			t.Fatalf("detections %s: %v", g.ID, err)
		}
		if len(first.Detections) != first.Next-first.Since || first.Total < first.Next {
			t.Fatalf("detections %s: page %+v inconsistent", g.ID, first)
		}
		again, err := c.Detections(ctx, g.ID, first.Next)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Detections) != 0 || again.Next != first.Next {
			t.Fatalf("cursor %s: non-empty tail %+v", g.ID, again)
		}

		rep, err := c.DeleteStream(ctx, g.ID)
		if err != nil {
			t.Fatalf("delete %s: %v", g.ID, err)
		}
		want, err := hub.Reference(kind.Config, g.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Detections, want) {
			t.Errorf("%s: /v1 transcript diverges from Reference:\n got %v\nwant %v", g.ID, rep.Detections, want)
		}
		if rep.Stats.Position != len(g.Data) {
			t.Errorf("%s: final position %d, want %d", g.ID, rep.Stats.Position, len(g.Data))
		}
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV1SpecStreamMatchesReference registers a stream whose classifier
// comes from a declarative spec override (not the kind default) and pins
// its transcript against a Reference oracle running the same spec-trained
// classifier.
func TestV1SpecStreamMatchesReference(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	srv := servetest.New(t, hub.Config{Workers: 2}, kinds)
	h, c := srv.Hub, srv.Client
	ctx := context.Background()

	var chicken hub.Kind
	for _, k := range kinds {
		if k.Name == "chicken" {
			chicken = k
		}
	}
	const spec = "probthreshold:threshold=0.95,minprefix=12"
	info, err := c.CreateStream(ctx, client.CreateStreamRequest{
		ID: "coop-spec", Kind: "chicken", Spec: spec, Engine: "eager",
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Spec != spec || info.Engine != "eager" {
		t.Fatalf("spec stream info %+v", info)
	}

	data, err := chicken.Gen(rand.New(rand.NewSource(99)), 2600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(ctx, "coop-spec", data); err != nil {
		t.Fatal(err)
	}
	rep, err := c.DeleteStream(ctx, "coop-spec")
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: the same spec trained on the kind's dataset, same geometry.
	refCfg, err := serve.SpecStreamConfig(chicken, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hub.Reference(refCfg, data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Detections, want) {
		t.Errorf("spec stream transcript diverges from Reference:\n got %v\nwant %v", rep.Detections, want)
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV1StatsShape pins the wire shape of GET /v1/stats: a JSON object
// whose keys are exactly the fields of hub.Totals, with no per-shard rows.
// StreamInfo still carries "shard": 0, since /v1 changes are additive
// only.
func TestV1StatsShape(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	srv := servetest.New(t, hub.Config{Workers: 2}, kinds)
	if _, err := srv.Client.CreateStream(context.Background(), client.CreateStreamRequest{ID: "flat-0"}); err != nil {
		t.Fatal(err)
	}

	status, body := servetest.RawStatus(t, http.MethodGet, srv.HTTP.URL+"/v1/stats", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d: %s", status, body)
	}
	var stats map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/v1/stats body %q is not a JSON object: %v", body, err)
	}
	var got, want []string
	for k := range stats {
		got = append(got, k)
	}
	totals := reflect.TypeOf(hub.Totals{})
	for i := 0; i < totals.NumField(); i++ {
		want = append(want, totals.Field(i).Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/v1/stats keys %v, want the hub.Totals fields %v", got, want)
	}
	if string(stats["Streams"]) != "1" {
		t.Fatalf("/v1/stats Streams = %s, want 1", stats["Streams"])
	}

	status, body = servetest.RawStatus(t, http.MethodGet, srv.HTTP.URL+"/v1/streams/flat-0", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/streams/flat-0: status %d: %s", status, body)
	}
	var info map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if shard, ok := info["shard"]; !ok || string(shard) != "0" {
		t.Fatalf(`StreamInfo %s: want "shard": 0`, body)
	}
	srv.CloseHub(t)
}

// TestDeleteRecreateKeepsRegistration pins that a DELETE drops only the
// registration it detached. Detach takes the stream out of the hub before
// it drains the queue, so a create of the same id can land while the
// DELETE still drains; that new stream must keep its kind and spec.
func TestDeleteRecreateKeepsRegistration(t *testing.T) {
	demo := servetest.DemoKinds(t)[0]
	srv := servetest.New(t, hub.Config{Workers: 2, QueueDepth: 16}, []hub.Kind{servetest.SlowKind(5 * time.Millisecond), demo})
	defer srv.CloseHub(t)
	c := srv.Client
	ctx := context.Background()
	if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: "x", Kind: "slow"}); err != nil {
		t.Fatal(err)
	}
	batch := make([]float64, 64)
	for i := 0; i < 12; i++ {
		if _, err := c.Push(ctx, "x", batch); err != nil {
			t.Fatal(err)
		}
	}
	deleted := make(chan error, 1)
	go func() {
		_, err := c.DeleteStream(ctx, "x")
		deleted <- err
	}()
	for {
		_, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: "x", Kind: demo.Name})
		if err == nil {
			break
		}
		if !client.IsCode(err, client.CodeDuplicateStream) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-deleted:
		t.Fatal("the DELETE finished before the create landed: the queue drained too fast to race")
	default:
	}
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	info, err := c.Stream(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != demo.Name || info.Spec != demo.Spec.String() {
		t.Errorf("re-created stream reports kind %q spec %q, want %q %q", info.Kind, info.Spec, demo.Name, demo.Spec.String())
	}
}
