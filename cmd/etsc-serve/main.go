// Etsc-serve runs the multi-stream monitoring hub as a service: an HTTP
// API multiplexing any number of telemetry streams through the shared
// engine, or — with -streams — a self-contained load generator that
// drives the hub (in-process, or a remote server via -target) with
// synthetic telemetry and reports throughput, ingest latency, and
// detection tallies.
//
// Server mode:
//
//	go run ./cmd/etsc-serve -addr :8080
//
//	# the versioned API (structured JSON errors, explicit registration):
//	curl -X POST localhost:8080/v1/streams -d '{"id":"coop7","kind":"chicken"}'
//	curl -X POST localhost:8080/v1/streams/coop7/push -d '{"points":[0.1,0.4,-0.2]}'
//	curl 'localhost:8080/v1/streams'                       # list + per-stream stats
//	curl 'localhost:8080/v1/stats'                         # hub totals
//	curl 'localhost:8080/v1/detections?stream=coop7&since=0'
//	curl -N localhost:8080/v1/streams/coop7/watch          # live SSE detection feed
//	curl localhost:8080/metrics                            # Prometheus text (-metrics=false disables)
//	curl -X DELETE localhost:8080/v1/streams/coop7         # final report
//
// Stream registration takes a kind (words, gunpoint, chicken — see
// hub.DemoKinds) or additionally a declarative classifier spec trained on
// the kind's dataset, e.g. {"kind":"chicken","spec":"fixedprefix:at=40"}.
//
// On SIGINT/SIGTERM the server stops accepting requests, drains every
// stream queue through hub.Close, and prints a final stats line — no
// batch is lost mid-shutdown.
//
// Load-generator mode:
//
//	go run ./cmd/etsc-serve -streams 24 -points 20000 -rate 5000 -workers 8
//	go run ./cmd/etsc-serve -streams 8 -target http://coop-farm:8080
//
// runs -streams concurrent pushers round-robined over the three demo
// kinds, each pushing -points points in -batch sized batches, paced at
// -rate points/sec per stream (0 = as fast as accepted), then prints
// aggregate throughput, p50/p99 push latency, and per-kind detection
// tallies. Without -target the hub is driven in process; with -target the
// same workload flows through the typed /v1 client against a remote
// server.
//
// In both modes every stream of a kind shares the one detector trained at
// startup. -spec kind=algo:key=value,… replaces a kind's detector with one
// trained from the given registry spec.
//
// Backpressure is selected with -policy: block (default) stalls a full
// queue's producer, drop answers 429 + Retry-After, and shed accepts the
// push but evicts the stream's oldest queued batch, counting per-stream
// sheds in stats and /metrics instead of refusing ingest.
//
// Soak/chaos mode:
//
//	go run ./cmd/etsc-serve -soak         # full battery
//	go run ./cmd/etsc-serve -soak -quick  # CI smoke size
//
// stands up a shed-policy server on loopback and abuses it — bursty
// pushers, slow/stalled/disconnect-and-resume watchers, one deliberately
// overloaded stream — then verifies watcher transcripts against final
// reports, zero rejections on healthy streams, explicit shed counters on
// the abused one, and a lint-clean /metrics body (see soak.go).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"etsc/internal/client"
	"etsc/internal/etsc"
	"etsc/internal/hub"
	"etsc/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address (server mode)")
		workers   = flag.Int("workers", 0, "hub worker pool size (0 = NumCPU)")
		queue     = flag.Int("queue", 0, "per-stream queue depth in batches (0 = default)")
		policy    = flag.String("policy", "block", "backpressure policy: block, drop, or shed")
		seed      = flag.Int64("seed", 1, "scenario seed for the demo pipelines")
		streams   = flag.Int("streams", 0, "load-generator mode: number of streams (0 = serve HTTP)")
		points    = flag.Int("points", 20_000, "load generator: points per stream")
		batch     = flag.Int("batch", 64, "load generator: points per Push")
		rate      = flag.Float64("rate", 0, "load generator: points/sec per stream (0 = unthrottled)")
		target    = flag.String("target", "", "load generator: drive a remote etsc-serve /v1 API at this base URL instead of an in-process hub")
		metricsOn = flag.Bool("metrics", true, "server mode: expose Prometheus text exposition at GET /metrics")
		ckptDir   = flag.String("checkpoint", "", "server mode: durable checkpoint directory — boot restores every stream found there, then a background checkpointer persists all streams periodically and at shutdown")
		ckptEvery = flag.Duration("checkpoint-interval", 30*time.Second, "server mode: interval between background checkpoint generations (with -checkpoint)")
		soak      = flag.Bool("soak", false, "run the soak/chaos battery — shed-policy server, bursty pushers, slow/stalled/reconnecting watchers — then exit")
		quick     = flag.Bool("quick", false, "soak: CI-smoke sizes (seconds, not minutes)")
	)
	specOverrides := map[string]string{}
	flag.Func("spec", "replace a kind's detector: kind=algo:key=value,... (repeatable; trained on the kind's dataset)", func(s string) error {
		kind, spec, ok := strings.Cut(s, "=")
		if !ok || kind == "" || spec == "" {
			return fmt.Errorf("want kind=algo:key=value,..., got %q", s)
		}
		specOverrides[strings.TrimSpace(kind)] = strings.TrimSpace(spec)
		return nil
	})
	flag.Parse()

	pol, err := hub.ParsePolicy(*policy)
	if err != nil {
		log.Fatalf("-policy: %v", err)
	}

	if *target != "" {
		if *streams <= 0 {
			log.Fatal("-target needs -streams > 0 (remote load-generator mode)")
		}
		// Pipeline configuration lives on the remote server; refusing
		// these flags beats silently ignoring them.
		if len(specOverrides) > 0 {
			log.Fatal("-spec configures local pipelines and does not apply with -target; set it on the remote server instead")
		}
		// The remote server owns pipelines and training; only stream
		// *data* is generated locally, so plain DemoKinds suffices.
		kinds, err := hub.DemoKinds(*seed)
		if err != nil {
			log.Fatal(err)
		}
		if err := loadgenRemote(os.Stdout, *target, kinds, *seed, *streams, *points, *batch, *rate); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Warm start: every stream of a kind shares one trained detector.
	trainStart := time.Now()
	kinds, err := hub.DemoKinds(*seed)
	if err != nil {
		log.Fatal(err)
	}
	// -spec overrides retrain named kinds' detectors through the registry.
	for i := range kinds {
		spec, ok := specOverrides[kinds[i].Name]
		if !ok {
			continue
		}
		clf, err := etsc.TrainSpecString(spec, kinds[i].TrainSet)
		if err != nil {
			log.Fatalf("-spec %s=%s: %v", kinds[i].Name, spec, err)
		}
		kinds[i].Config.Classifier = clf
		kinds[i].Spec = etsc.MustParseSpec(spec)
		delete(specOverrides, kinds[i].Name)
	}
	for kind := range specOverrides {
		log.Fatalf("-spec %s=...: no such kind", kind)
	}
	log.Printf("etsc-serve: trained %d demo kinds in %v",
		len(kinds), time.Since(trainStart).Round(time.Millisecond))

	if *soak {
		if err := soakRun(os.Stdout, kinds, *seed, *quick); err != nil {
			log.Fatal(err)
		}
		return
	}
	h, err := hub.New(hub.Config{Workers: *workers, QueueDepth: *queue, Policy: pol})
	if err != nil {
		log.Fatal(err)
	}

	if *streams > 0 {
		if err := loadgen(os.Stdout, h, kinds, *seed, *streams, *points, *batch, *rate); err != nil {
			log.Fatal(err)
		}
		return
	}

	srv, err := serve.New(h, kinds)
	if err != nil {
		log.Fatal(err)
	}
	if *metricsOn {
		// One registry feeds both halves: the hub's hot-path instruments and
		// the serve layer's scrape-time families.
		h.SetMetrics(srv.EnableMetrics(nil))
	}
	// Durable state: restore whatever the last run checkpointed BEFORE the
	// listener opens (clients must never race a half-restored fleet), then
	// keep checkpointing in the background. Corrupt or stale files degrade
	// to counted fresh-start fallbacks, never a failed boot.
	var cp *serve.Checkpointer
	if *ckptDir != "" {
		st, err := srv.RestoreFromDir(*ckptDir, nil)
		if err != nil {
			log.Fatalf("etsc-serve: -checkpoint %s: %v", *ckptDir, err)
		}
		log.Printf("etsc-serve: checkpoint restore from %s — %d restored, %d fresh-start fallbacks, %d skipped",
			*ckptDir, st.Restored, st.Fallbacks, st.Skipped)
		if cp, err = serve.NewCheckpointer(srv, *ckptDir, *ckptEvery); err != nil {
			log.Fatalf("etsc-serve: -checkpoint %s: %v", *ckptDir, err)
		}
		cp.Start()
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	// Graceful shutdown: SIGINT/SIGTERM stops the listener, drains every
	// stream queue through hub.Close (no batch is dropped mid-shutdown),
	// and prints a final stats line.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("etsc-serve listening on %s (workers=%d policy=%s kinds=%s)",
		*addr, *workers, pol, strings.Join(srv.KindNames(), ","))

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("etsc-serve: signal received, draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("etsc-serve: http shutdown: %v", err)
	}
	// Final checkpoint generation: stop the periodic loop, drain every
	// queue, then persist each stream at its fully-drained position — the
	// next boot resumes with zero replay.
	if cp != nil {
		cp.Stop()
		h.Flush()
		if err := cp.Sync(); err != nil {
			log.Printf("etsc-serve: final checkpoint: %v", err)
		} else {
			log.Printf("etsc-serve: final checkpoint generation written to %s", *ckptDir)
		}
	}
	reports, err := h.Close()
	if err != nil {
		log.Fatalf("etsc-serve: hub close: %v", err)
	}
	var points64, dropped int64
	var dets, recanted int
	for _, r := range reports {
		points64 += r.Stats.Points
		dropped += r.Stats.DroppedPoints
		dets += len(r.Detections)
		recanted += r.Stats.Recanted
	}
	log.Printf("etsc-serve: drained %d streams — %d points processed, %d dropped, %d detections (%d recanted)",
		len(reports), points64, dropped, dets, recanted)
}

// loadgen drives the hub with synthetic streams and reports capacity.
func loadgen(w *os.File, h *hub.Hub, kinds []hub.Kind, seed int64, streams, points, batchSize int, rate float64) error {
	if batchSize <= 0 {
		return fmt.Errorf("etsc-serve: -batch must be > 0, got %d", batchSize)
	}
	fmt.Fprintf(w, "load generator: %d streams × %d points, batch=%d, rate=%s\n",
		streams, points, batchSize, rateLabel(rate))

	gens, err := hub.DemoStreams(kinds, seed, streams, points)
	if err != nil {
		return err
	}
	for _, g := range gens {
		if err := h.Attach(g.ID, g.Config); err != nil {
			return err
		}
	}

	res := driveStreams(gens, batchSize, rate, func(g hub.DemoStream, batch []float64) (string, error) {
		return "", h.Push(g.ID, batch)
	})
	h.Flush()
	ingestWall := time.Since(res.start)

	reports, err := h.Close()
	if err != nil {
		return err
	}
	printLoadReport(w, kinds, res, ingestWall, reports)
	return nil
}

// loadgenRemote is loadgen over the wire: the same demo workload pushed
// through the typed /v1 client against a running etsc-serve at base.
func loadgenRemote(w *os.File, base string, kinds []hub.Kind, seed int64, streams, points, batchSize int, rate float64) error {
	if batchSize <= 0 {
		return fmt.Errorf("etsc-serve: -batch must be > 0, got %d", batchSize)
	}
	fmt.Fprintf(w, "remote load generator → %s: %d streams × %d points, batch=%d, rate=%s\n",
		base, streams, points, batchSize, rateLabel(rate))

	// Retries cover transient transport faults and 5xx on the idempotent
	// calls (list/stats/detach); pushes stay single-shot so backpressure
	// and drop accounting reflect what the server actually accepted.
	c, err := client.New(base, client.WithRetry(4, 200*time.Millisecond))
	if err != nil {
		return err
	}
	ctx := context.Background()
	gens, err := hub.DemoStreams(kinds, seed, streams, points)
	if err != nil {
		return err
	}
	for _, g := range gens {
		if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: g.ID, Kind: g.Kind}); err != nil {
			return fmt.Errorf("register %s: %w", g.ID, err)
		}
	}

	res := driveStreams(gens, batchSize, rate, func(g hub.DemoStream, batch []float64) (string, error) {
		resp, err := c.Push(ctx, g.ID, batch)
		if err != nil && !client.IsBackpressure(err) {
			// Only backpressure is a countable rejection; anything else
			// (connection loss, unknown stream) must abort the run, not
			// masquerade as drops in the report.
			return "", fmt.Errorf("%w: %s: %v", errPushFatal, g.ID, err)
		}
		// Backend is the router's owner echo (X-Etsc-Backend); empty when
		// the target is a single node, which suppresses the breakdown.
		return resp.Backend, err
	})
	if res.err != nil {
		return res.err
	}
	ingestWall := time.Since(res.start)

	// Detach every stream for its final report — the remote equivalent of
	// hub.Close's drain.
	reports := make([]hub.StreamReport, 0, len(gens))
	for _, g := range gens {
		rep, err := c.DeleteStream(ctx, g.ID)
		if err != nil {
			return fmt.Errorf("detach %s: %w", g.ID, err)
		}
		reports = append(reports, rep)
	}
	printLoadReport(w, kinds, res, ingestWall, reports)
	return nil
}

// errPushFatal marks a push failure that should abort the load run
// instead of counting as a backpressure rejection.
var errPushFatal = errors.New("etsc-serve: load generator push failed")

// loadResult aggregates what the pushers measured. perBackend splits
// the latency samples by the owner backend a routing front tier echoed
// per push (empty when the target was a single node).
type loadResult struct {
	start      time.Time
	latencies  []time.Duration
	perBackend map[string][]time.Duration
	rejected   int
	total      int64
	err        error // first errPushFatal-wrapped failure, if any
}

// driveStreams runs one goroutine per stream, pushing batches through
// push with optional pacing, and aggregates latencies and tallies. push
// returns the serving backend's name ("" when there is no front tier);
// non-empty names feed the per-backend latency breakdown.
func driveStreams(gens []hub.DemoStream, batchSize int, rate float64, push func(hub.DemoStream, []float64) (string, error)) loadResult {
	var (
		mu  sync.Mutex
		res loadResult
	)
	res.start = time.Now()
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func(g hub.DemoStream) {
			defer wg.Done()
			var interval time.Duration
			if rate > 0 {
				interval = time.Duration(float64(batchSize) / rate * float64(time.Second))
			}
			next := time.Now()
			local := make([]time.Duration, 0, len(g.Data)/batchSize+1)
			localBy := map[string][]time.Duration{}
			rejected := 0
			var pushed int64
			for off := 0; off < len(g.Data); off += batchSize {
				end := off + batchSize
				if end > len(g.Data) {
					end = len(g.Data)
				}
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				t0 := time.Now()
				backend, err := push(g, g.Data[off:end])
				lat := time.Since(t0)
				local = append(local, lat)
				if backend != "" {
					localBy[backend] = append(localBy[backend], lat)
				}
				if errors.Is(err, errPushFatal) {
					mu.Lock()
					if res.err == nil {
						res.err = err
					}
					mu.Unlock()
					break
				}
				if err != nil {
					rejected++
					continue
				}
				pushed += int64(end - off)
			}
			mu.Lock()
			res.latencies = append(res.latencies, local...)
			for name, lats := range localBy {
				if res.perBackend == nil {
					res.perBackend = map[string][]time.Duration{}
				}
				res.perBackend[name] = append(res.perBackend[name], lats...)
			}
			res.rejected += rejected
			res.total += pushed
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return res
}

// printLoadReport renders throughput, latency percentiles, and per-kind
// tallies. With an empty sample set (every push rejected, or zero
// streams) it reports n=0 instead of misleading zero percentiles.
func printLoadReport(w *os.File, kinds []hub.Kind, res loadResult, ingestWall time.Duration, reports []hub.StreamReport) {
	perKind := map[string]*struct{ streams, dets, recanted, points int }{}
	for _, r := range reports {
		kind := strings.SplitN(r.ID, "-", 2)[0]
		pk := perKind[kind]
		if pk == nil {
			pk = &struct{ streams, dets, recanted, points int }{}
			perKind[kind] = pk
		}
		pk.streams++
		pk.dets += len(r.Detections)
		pk.recanted += r.Stats.Recanted
		pk.points += r.Stats.Position
	}

	secs := ingestWall.Seconds()
	rate := 0.0
	if secs > 0 {
		rate = float64(res.total) / secs
	}
	fmt.Fprintf(w, "ingested %d points in %v — %.0f points/sec aggregate\n",
		res.total, ingestWall.Round(time.Millisecond), rate)
	sort.Slice(res.latencies, func(a, b int) bool { return res.latencies[a] < res.latencies[b] })
	if len(res.latencies) == 0 {
		fmt.Fprintf(w, "push latency: n=0 (no pushes sampled; %d rejected)\n", res.rejected)
	} else {
		fmt.Fprintf(w, "push latency: p50=%v p99=%v max=%v (%d pushes, %d rejected)\n",
			percentile(res.latencies, 0.50), percentile(res.latencies, 0.99),
			percentile(res.latencies, 1.0), len(res.latencies), res.rejected)
	}
	// Per-backend breakdown: present only when the target echoed owner
	// backends (i.e. the pushes went through a routing front tier).
	if len(res.perBackend) > 0 {
		names := make([]string, 0, len(res.perBackend))
		for name := range res.perBackend {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			lats := res.perBackend[name]
			sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
			fmt.Fprintf(w, "backend %-12s %6d pushes, p50=%v p99=%v max=%v\n",
				name, len(lats),
				percentile(lats, 0.50), percentile(lats, 0.99), percentile(lats, 1.0))
		}
	}
	names := make([]string, 0, len(kinds))
	for _, k := range kinds {
		names = append(names, k.Name)
	}
	sort.Strings(names)
	for _, kind := range names {
		pk := perKind[kind]
		if pk == nil {
			continue
		}
		fmt.Fprintf(w, "kind %-9s %2d streams, %7d points, %5d detections (%d recanted)\n",
			kind, pk.streams, pk.points, pk.dets, pk.recanted)
	}
}

func rateLabel(rate float64) string {
	if rate <= 0 {
		return "unthrottled"
	}
	return fmt.Sprintf("%.0f pts/sec/stream", rate)
}

// percentile reads the q-quantile of an ascending-sorted sample; callers
// must handle the empty case (printLoadReport reports n=0).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)-1) * q)
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
