// Etsc-serve runs the multi-stream monitoring hub as a service: the
// versioned /v1 HTTP API multiplexing any number of telemetry streams
// through one shared engine, and Prometheus text at /metrics.
//
//	go run ./cmd/etsc-serve -addr :8080
//
//	curl -X POST localhost:8080/v1/streams -d '{"id":"coop7","kind":"chicken"}'
//	curl -X POST localhost:8080/v1/streams/coop7/push -d '{"points":[0.1,0.4,-0.2]}'
//	curl 'localhost:8080/v1/streams'                       # list + per-stream stats
//	curl 'localhost:8080/v1/stats'                         # hub totals
//	curl 'localhost:8080/v1/detections?stream=coop7&since=0'
//	curl -N localhost:8080/v1/streams/coop7/watch          # live SSE detection feed
//	curl localhost:8080/metrics                            # Prometheus text exposition
//	curl -X DELETE localhost:8080/v1/streams/coop7         # final report
//
// Stream registration takes a kind (words, gunpoint, chicken — see
// hub.DemoKinds) or additionally a declarative classifier spec trained on
// the kind's dataset, e.g. {"kind":"chicken","spec":"fixedprefix:at=40"}.
// Every stream of a kind shares the one detector trained at startup;
// -spec kind=algo:key=value,… replaces a kind's detector with one trained
// from the given registry spec.
//
// Backpressure is selected with -policy: block (default) stalls a full
// queue's producer, drop answers 429 + Retry-After, and shed accepts the
// push but evicts the stream's oldest queued batch, counting per-stream
// sheds in stats and /metrics instead of refusing ingest.
//
// On SIGINT/SIGTERM the server stops accepting requests, drains every
// stream queue through hub.Close, and prints a final stats line — no
// batch is lost mid-shutdown.
//
// perfbench/ measures this binary under load
// (bash perfbench/run.sh --workload fleet).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"etsc/internal/etsc"
	"etsc/internal/hub"
	"etsc/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		workers   = flag.Int("workers", 0, "hub worker pool size (0 = NumCPU)")
		queue     = flag.Int("queue", 0, "per-stream queue depth in batches (0 = default)")
		policy    = flag.String("policy", "block", "backpressure policy: block, drop, or shed")
		seed      = flag.Int64("seed", 1, "scenario seed for the demo pipelines")
		ckptDir   = flag.String("checkpoint", "", "durable checkpoint directory — boot restores every stream found there, then a background checkpointer persists all streams periodically and at shutdown")
		ckptEvery = flag.Duration("checkpoint-interval", 30*time.Second, "interval between background checkpoint generations (with -checkpoint)")
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

	h, err := hub.New(hub.Config{Workers: *workers, QueueDepth: *queue, Policy: pol})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.New(h, kinds)
	if err != nil {
		log.Fatal(err)
	}
	// One registry feeds both halves: the hub's hot-path instruments and
	// the serve layer's scrape-time families.
	h.SetMetrics(srv.EnableMetrics(nil))
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
	var points, dropped int64
	var dets, recanted int
	for _, r := range reports {
		points += r.Stats.Points
		dropped += r.Stats.DroppedPoints
		dets += len(r.Detections)
		recanted += r.Stats.Recanted
	}
	log.Printf("etsc-serve: drained %d streams — %d points processed, %d dropped, %d detections (%d recanted)",
		len(reports), points, dropped, dets, recanted)
}
