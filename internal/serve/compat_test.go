package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"etsc/internal/hub"
	"etsc/internal/serve"
	"etsc/internal/serve/servetest"
)

// TestRestoreLegacyCheckpoints restores a checkpoint directory written by
// the last build whose default inference engine was the lazy
// nearest-neighbour frontier (testdata/parent-checkpoints). It holds three
// gunpoint streams, each checkpointed after point 1211 of the 2400-point
// series in series.json:
//
//   - ects-default: spec "ects" on that build's default engine. Its open
//     candidates are lazy-bank session frames (bank flavor 'L', the raw
//     query prefix) and its hub frame records engine 0; the checkpoint
//     metadata says "pruned".
//   - ects-eager: spec "ects" registered with "engine":"eager". Its frames
//     carry eager accumulators (flavor 'E') under engine 1.
//   - probthreshold-default: the kind's stock ProbThreshold pipeline on the
//     default engine. Its 20-reference bank already ran eager, so 'E'
//     frames under engine 0.
//
// Every file must restore exactly — no fallback, no skip — every stream
// must report the one engine, and pushing the rest of the series must
// finish each stream on hub.Reference's transcript.
//
// The directory was generated, and can only be regenerated, by that older
// build (commit 0dfedc1):
//
//  1. Check the commit out in a separate working tree.
//  2. There, build a serve.Server over hub.DemoKinds(3) and
//     hub.Config{Workers: 1}, and register the three streams above on kind
//     "gunpoint" through the /v1 client.
//  3. Render the series as the gunpoint kind's
//     Gen(rand.New(rand.NewSource(101)), 2400), cut to 2400 points, and
//     push its first 1211 points to each stream in 100-point batches.
//  4. Flush the hub, run one serve.Checkpointer Sync into this directory,
//     and write the series as a JSON array to series.json.
func TestRestoreLegacyCheckpoints(t *testing.T) {
	const dir = "testdata/parent-checkpoints"
	const cut = 1211
	raw, err := os.ReadFile(filepath.Join(dir, "series.json"))
	if err != nil {
		t.Fatal(err)
	}
	var series []float64
	if err := json.Unmarshal(raw, &series); err != nil {
		t.Fatal(err)
	}
	streams := []struct{ id, spec, recorded string }{
		{"ects-default", "ects", "pruned"},
		{"ects-eager", "ects", "eager"},
		{"probthreshold-default", "", "pruned"},
	}

	// The files are what the comment says they are.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]string{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		frame, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		meta, err := serve.DecodeCheckpoint(frame)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		recorded[meta.ID] = meta.Engine
	}
	if len(recorded) != len(streams) {
		t.Fatalf("fixture holds streams %v, want %d", recorded, len(streams))
	}
	for _, s := range streams {
		if recorded[s.id] != s.recorded {
			t.Fatalf("%s: checkpoint records engine %q, want %q", s.id, recorded[s.id], s.recorded)
		}
	}

	kinds := servetest.DemoKinds(t)
	var gunpoint hub.Kind
	for _, k := range kinds {
		if k.Name == "gunpoint" {
			gunpoint = k
		}
	}
	ts := servetest.New(t, hub.Config{Workers: 2}, kinds)
	st, err := ts.Srv.RestoreFromDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if st != (serve.RestoreStats{Restored: len(streams)}) {
		t.Fatalf("restore stats %+v, want {Restored:%d}", st, len(streams))
	}
	ctx := context.Background()
	for _, s := range streams {
		info, err := ts.Client.Stream(ctx, s.id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Stats.Position != cut || info.Engine != "eager" {
			t.Fatalf("%s restored at {pos %d engine %q}, want {%d eager}", s.id, info.Stats.Position, info.Engine, cut)
		}
		pushRange(t, ts.Client, s.id, series, cut, len(series), true)
	}
	ts.Flush()
	for _, s := range streams {
		cfg := gunpoint.Config
		if s.spec != "" {
			if cfg, err = serve.SpecStreamConfig(gunpoint, s.spec); err != nil {
				t.Fatal(err)
			}
		}
		want, err := hub.Reference(cfg, series)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: Reference fires nothing; the fixture proves nothing", s.id)
		}
		rep, err := ts.Client.DeleteStream(ctx, s.id)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%+v", rep.Detections), fmt.Sprintf("%+v", want); got != want {
			t.Errorf("%s: transcript after restore != Reference\n got %s\nwant %s", s.id, got, want)
		}
	}
	ts.CloseHub(t)
}
