// Benchmarks of the inference hot path — the streaming-prefix evaluation
// loop the deployment argument lives on. BenchmarkEvalAll evaluates every
// native classifier on the demo datasets through its one session engine;
// BenchmarkHubPush measures the hub's steady-state ingest path with
// allocation reporting; BenchmarkHubPushStreams measures cold and steady
// ingest as the stream count grows. CI runs BenchmarkEvalAll at -count 5
// and the other two at -benchtime=1x, and appends the output to
// BENCH_eval.json (with host cpus and go version), building the eval-path
// performance trajectory alongside BENCH_train.json's training trajectory.
// Records up to 2026-10 split the bank-backed cells into ECTS/eager,
// ECTS/pruned, ProbThreshold/eager and ProbThreshold/pruned; the ECTS and
// ProbThreshold cells continue the /eager rows.
//
//	go test -bench 'BenchmarkEvalAll|BenchmarkHubPush' -benchmem .
package etsc_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/etsc"
	"etsc/internal/hub"
	"etsc/internal/ts"
)

// BenchmarkEvalAll evaluates each native classifier over the GunPoint demo
// test split through its session, point-at-a-time (step 1) — the paper's
// streaming-prefix loop at its real granularity, where every arriving
// sample is a decision opportunity. One cell per classifier: the
// bank-backed ones (ECTS, ProbThreshold) extend every training
// accumulator per point through the blocked kernel, the rest do snapshot-
// or shapelet-driven Extend work.
func BenchmarkEvalAll(b *testing.B) {
	train, test := benchSplit(b)
	builds := []struct{ name, spec string }{
		{"ECTS", "ects"},
		{"ProbThreshold", "probthreshold:threshold=0.8,minprefix=10"},
		{"TEASER", "teaser"},
		{"EDSC-CHE", "edsc:method=che"},
		{"RelClass", "relclass"},
		{"FixedPrefix", fmt.Sprintf("fixedprefix:at=%d,znorm=true", train.SeriesLen()/3)},
	}
	for _, bc := range builds {
		c, err := etsc.TrainSpecString(bc.spec, train)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := etsc.EvaluateParallel(c, test, 1, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHubPush measures steady-state hub ingest on the demo workload
// with allocation reporting: 4 streams over the three kinds registered
// explicitly up front (the /v1-era shape — POST /v1/streams then pushes),
// batch-64 pushes through a single-worker pool, one op = pushing every
// stream's full series and draining via Flush. Hub construction, stream
// registration, and final Close all sit outside the timer, so allocs/op is
// the ingest path alone — recycled batch buffers plus the sessions'
// zero-allocation Extends. Records in BENCH_eval.json up to 2026-08-07
// measured the older per-op shape (hub construction + lazy demo attach +
// Close inside the loop); the trajectory restarts from that date.
func BenchmarkHubPush(b *testing.B) {
	kinds, err := hub.DemoKinds(17)
	if err != nil {
		b.Fatal(err)
	}
	const nStreams = 4
	const perStream = 4_000
	gens, err := hub.DemoStreams(kinds, 17, nStreams, perStream)
	if err != nil {
		b.Fatal(err)
	}
	totalPoints := 0
	for _, g := range gens {
		totalPoints += len(g.Data)
	}
	const batch = 64
	h, err := hub.New(hub.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range gens {
		if err := h.Attach(g.ID, g.Config); err != nil {
			b.Fatal(err)
		}
	}
	push := func() {
		for _, g := range gens {
			for off := 0; off < len(g.Data); off += batch {
				end := off + batch
				if end > len(g.Data) {
					end = len(g.Data)
				}
				if err := h.Push(g.ID, g.Data[off:end]); err != nil {
					b.Fatal(err)
				}
			}
		}
		h.Flush()
	}
	// One untimed pass warms the queue freelists and session buffers, so
	// the op measures steady state even at CI's -benchtime=1x.
	push()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
	}
	b.StopTimer()
	b.SetBytes(int64(totalPoints * 8))
	if _, err := h.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchQuietConfig builds the deliberately cheap pipeline the many-streams
// bench attaches everywhere: a FixedPrefix detector over two constant
// exemplars, evaluation stride pushed to the exemplar length, so the
// measurement isolates queueing and lock contention rather than
// classifier CPU.
func benchQuietConfig(b *testing.B, seriesLen int) hub.StreamConfig {
	b.Helper()
	mk := func(level float64) dataset.Instance {
		s := make(ts.Series, seriesLen)
		for i := range s {
			s[i] = level
		}
		return dataset.Instance{Label: int(level) + 2, Series: s}
	}
	d, err := dataset.New("quiet", []dataset.Instance{mk(-1), mk(1)})
	if err != nil {
		b.Fatal(err)
	}
	clf, err := etsc.Train(etsc.Spec{Algo: etsc.AlgoFixedPrefix, Params: map[string]any{
		"at": seriesLen, "znorm": false}}, d)
	if err != nil {
		b.Fatal(err)
	}
	return hub.StreamConfig{Classifier: clf, Stride: seriesLen, Step: 8}
}

// BenchmarkHubPushStreams measures hub ingest as the stream count grows:
// quiet pipelines, GOMAXPROCS pusher goroutines partitioned over the
// streams, batch-64 pushes, one op = a fixed ~1M-point budget split evenly
// across the cell's streams (floor one batch per stream), drained by
// Flush. Each stream count runs in two regimes:
//
//   - cold: every op pushes into a freshly built hub, so the op includes
//     each stream's first touch (queue buffers, session state) and, at
//     100k streams, 100k drains queued at once on the worker pool. Hub
//     construction, the attach storm and Close sit outside the timer.
//   - steady: one hub and one untimed warm pass, then every op re-pushes
//     the budget into warm streams.
//
// Until 2026-10 this bench was BenchmarkHubPushSharded, whose shards=1
// rows were the cold cells here; the BENCH_eval.json trajectory restarts
// under the new name.
func BenchmarkHubPushStreams(b *testing.B) {
	const (
		seriesLen   = 512
		batch       = 64
		totalBudget = 1 << 20
	)
	sc := benchQuietConfig(b, seriesLen)
	pushers := runtime.GOMAXPROCS(0)
	for _, regime := range []string{"cold", "steady"} {
		for _, nStreams := range []int{16, 1024, 100_000} {
			b.Run(fmt.Sprintf("%s/streams=%d", regime, nStreams), func(b *testing.B) {
				ids := make([]string, nStreams)
				for i := range ids {
					ids[i] = fmt.Sprintf("s-%06d", i)
				}
				perStream := max(totalBudget/nStreams, batch)
				data := make([]float64, perStream)
				for i := range data {
					data[i] = float64(i%7) * 0.25
				}
				attach := func() *hub.Hub {
					h, err := hub.New(hub.Config{Workers: pushers, QueueDepth: 4})
					if err != nil {
						b.Fatal(err)
					}
					for _, id := range ids {
						if err := h.Attach(id, sc); err != nil {
							b.Fatal(err)
						}
					}
					return h
				}
				push := func(h *hub.Hub) {
					var wg sync.WaitGroup
					for p := 0; p < pushers; p++ {
						wg.Add(1)
						go func(p int) {
							defer wg.Done()
							for s := p; s < nStreams; s += pushers {
								for off := 0; off < perStream; off += batch {
									if err := h.Push(ids[s], data[off:min(off+batch, perStream)]); err != nil {
										b.Error(err)
										return
									}
								}
							}
						}(p)
					}
					wg.Wait()
					h.Flush()
				}
				closeHub := func(h *hub.Hub) {
					if _, err := h.Close(); err != nil {
						b.Fatal(err)
					}
				}

				b.ReportAllocs()
				if regime == "cold" {
					b.StopTimer()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						h := attach()
						b.StartTimer()
						push(h)
						b.StopTimer()
						closeHub(h)
					}
				} else {
					h := attach()
					push(h)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						push(h)
					}
					b.StopTimer()
					closeHub(h)
				}
				b.SetBytes(int64(nStreams) * int64(perStream) * 8)
			})
		}
	}
}
