// Command etsc-router is the multi-node front tier: one HTTP process
// routing the full /v1 protocol across a fixed table of etsc-serve
// backends by the shared FNV-1a placement contract, with live
// rebalancing and backend-death recovery from shared checkpoint storage.
//
//	# three backends sharing checkpoint storage under /var/etsc
//	etsc-serve -addr :8081 -checkpoint /var/etsc/node1 &
//	etsc-serve -addr :8082 -checkpoint /var/etsc/node2 &
//	etsc-serve -addr :8083 -checkpoint /var/etsc/node3 &
//	etsc-router -addr :8080 \
//	    -backends node1=http://localhost:8081,node2=http://localhost:8082,node3=http://localhost:8083 \
//	    -checkpoint-root /var/etsc
//
// Clients speak to the router exactly as they would to a single
// etsc-serve: every /v1 endpoint works unchanged, each proxied response
// carries the owner backend's name in X-Etsc-Backend, GET /metrics merges
// every backend's exposition relabeled with backend="name", and
// POST /admin/rebalance converges placement back to pure hashing after
// deaths or table changes. See internal/router for the ownership model.
// -debug-addr opens a second listener serving net/http/pprof's profiles,
// off by default.
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

	"etsc/internal/router"
	"etsc/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		backends  = flag.String("backends", "", "comma-separated backend table, in placement order: [name=]http://host:port,... (required)")
		ckptRoot  = flag.String("checkpoint-root", "", "shared checkpoint storage root the backends write under (<root>/<name>); enables backend-death stream recovery")
		probeInt  = flag.Duration("probe-interval", time.Second, "health-probe period per backend")
		probeTO   = flag.Duration("probe-timeout", 0, "single health-probe timeout (0 = probe-interval)")
		failThr   = flag.Int("fail-threshold", 3, "consecutive probe failures before a backend is declared dead")
		routeWait = flag.Duration("route-wait", 2*time.Second, "how long a request waits out a dead owner before failing 503/unavailable")
		debugAddr = flag.String("debug-addr", "", "listen address serving net/http/pprof under /debug/pprof/ (off when empty)")
	)
	flag.Parse()
	if *backends == "" {
		fmt.Fprintln(os.Stderr, "etsc-router: -backends is required (e.g. -backends n1=http://h1:8081,n2=http://h2:8082)")
		flag.Usage()
		os.Exit(2)
	}
	specs, err := parseBackends(*backends)
	if err != nil {
		log.Fatalf("etsc-router: %v", err)
	}

	rt, err := router.New(router.Config{
		Backends:       specs,
		CheckpointRoot: *ckptRoot,
		ProbeInterval:  *probeInt,
		ProbeTimeout:   *probeTO,
		FailThreshold:  *failThr,
		RouteWait:      *routeWait,
	})
	if err != nil {
		log.Fatalf("etsc-router: %v", err)
	}
	rt.Start()
	defer rt.Stop()

	for _, b := range rt.Backends() {
		log.Printf("etsc-router: backend %s = %s", b.Name, b.URL)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: rt}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("etsc-router: listening on %s over %d backends", *addr, len(specs))
	if *debugAddr != "" {
		go func() {
			log.Printf("etsc-router: -debug-addr: %v", http.ListenAndServe(*debugAddr, serve.DebugHandler()))
		}()
	}

	select {
	case err := <-errc:
		log.Fatalf("etsc-router: %v", err)
	case <-ctx.Done():
	}
	log.Printf("etsc-router: signal received, draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("etsc-router: shutdown: %v", err)
	}
}

// parseBackends splits "-backends n1=http://h:p,http://h2:p2" into specs;
// a bare URL names itself by host:port inside the router.
func parseBackends(s string) ([]router.BackendSpec, error) {
	var specs []router.BackendSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var sp router.BackendSpec
		if i := strings.Index(part, "="); i > 0 && !strings.Contains(part[:i], "://") {
			sp.Name, sp.URL = part[:i], part[i+1:]
		} else {
			sp.URL = part
		}
		specs = append(specs, sp)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no backends in %q", s)
	}
	return specs, nil
}
