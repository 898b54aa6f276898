package router

// FuzzRouterMerge fuzzes the router's two pure kernels — placement
// resolution and /metrics exposition merging — the parts whose
// correctness everything else leans on.
//
// Routing half: for arbitrary stream ids and table sizes, resolve() must
// agree with the offline placement contract (placement.Index over the
// table), an installed override must win, and clearing it must fall back
// to the hash home. This is the property that lets any client, operator,
// or second router compute ownership without asking anyone.
//
// Merge half: arbitrary bytes from one backend, merged beside a
// well-formed exposition from a backend earlier in the table, must never
// panic; the merged body, the router's own families included, must pass
// metrics.Lint and keep every sample of the well-formed backend,
// relabeled with its backend label — a misbehaving backend can degrade
// its own contribution but nobody else's.

import (
	"bytes"
	"fmt"
	"testing"

	"etsc/internal/metrics"
	"etsc/internal/placement"
)

func FuzzRouterMerge(f *testing.F) {
	mr, err := New(Config{
		Backends: []BackendSpec{{Name: "b0", URL: "http://127.0.0.1:20000"}, {Name: "b1", URL: "http://127.0.0.1:20001"}},
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		f.Fatal(err)
	}
	reg := metrics.NewRegistry()
	reg.Counter("etsc_hub_batches_total", "Batches accepted.").Add(3)
	reg.Counter("etsc_stream_detections_total", "Detections per stream.", metrics.L("stream", "coop7")).Inc()
	reg.Histogram("etsc_hub_push_seconds", "Push latency.", metrics.DefaultLatencyBuckets).Observe(2e-4)
	reg.Collect("etsc_streams", "Attached streams.", metrics.TypeGauge,
		func(emit func(float64, ...metrics.Label)) { emit(4) })
	var good bytes.Buffer
	reg.WriteTo(&good)
	goodFams, err := metrics.Parse(bytes.NewReader(good.Bytes()))
	if err != nil {
		f.Fatal(err)
	}

	f.Add("coop7", uint8(3), uint8(1), []byte("# TYPE etsc_streams gauge\netsc_streams 4\n"))
	f.Add("", uint8(1), uint8(0), []byte("# HELP x y\n# TYPE x counter\nx{a=\"b\"} 1\n"))
	f.Add("words-00", uint8(4), uint8(7), []byte("garbage\n\n#\n# TYPE\nname_bucket{le=\"+Inf\"} 2\n"))
	f.Add("gunpoint-12", uint8(2), uint8(0), []byte("etsc_hist_bucket{le=\"0.5\"} 1\netsc_hist_sum 2\netsc_hist_count 3\n"))

	f.Fuzz(func(t *testing.T, id string, nRaw, ovRaw uint8, expo []byte) {
		n := 1 + int(nRaw%4)
		specs := make([]BackendSpec, n)
		for i := range specs {
			specs[i] = BackendSpec{Name: fmt.Sprintf("b%d", i), URL: fmt.Sprintf("http://127.0.0.1:%d", 20000+i)}
		}
		rt, err := New(Config{Backends: specs})
		if err != nil {
			t.Fatal(err)
		}
		table := *rt.table.Load()

		// Hash-home resolution agrees with the offline contract.
		want := table[placement.Index(id, n)]
		if got := rt.resolve(id); got != want {
			t.Fatalf("resolve(%q) = %q, want placement home %q", id, got.name, want.name)
		}
		// An override wins; clearing it falls back home.
		ov := table[int(ovRaw)%n]
		rt.setOverride(id, ov.name)
		if got := rt.resolve(id); got != ov {
			t.Fatalf("resolve(%q) with override = %q, want %q", id, got.name, ov.name)
		}
		// An override naming a backend that left the table is ignored.
		rt.setOverride(id, "gone-node")
		if got := rt.resolve(id); got != want {
			t.Fatalf("resolve(%q) with dangling override = %q, want home %q", id, got.name, want.name)
		}
		rt.setOverride(id, "")
		if got := rt.resolve(id); got != want {
			t.Fatalf("resolve(%q) after clear = %q, want home %q", id, got.name, want.name)
		}

		// Merging arbitrary bytes beside a well-formed backend never
		// panics, lints, and keeps every well-formed sample.
		var out bytes.Buffer
		mr.writeMetrics(&out, *mr.table.Load(), [][]byte{good.Bytes(), expo})
		merged, err := metrics.Parse(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("merged body does not lint: %v\n%s", err, out.Bytes())
		}
		have := map[string]float64{}
		for _, fam := range merged {
			for _, s := range fam.Samples {
				have[s.Name+"{"+s.Labels+"}"] = s.Value
			}
		}
		for _, fam := range goodFams {
			for _, s := range fam.Samples {
				labels := `backend="b0"`
				if s.Labels != "" {
					labels += "," + s.Labels
				}
				key := s.Name + "{" + labels + "}"
				if v, ok := have[key]; !ok || v != s.Value {
					t.Fatalf("well-formed sample %s %v missing from the merged body\n%s", key, s.Value, out.Bytes())
				}
			}
		}
	})
}
