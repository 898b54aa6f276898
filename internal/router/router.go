// Package router is the multi-node front tier: one HTTP process that owns
// a fixed table of N backend etsc-serve processes and serves the same /v1
// protocol they do, routing every stream-scoped request to the stream's
// owner backend by the shared placement contract (placement.Index, FNV-1a
// mod N over the stream ID) and fanning out + deterministically merging
// the cross-stream endpoints.
//
//	stream-scoped (routed to the owner backend, owner echoed in the
//	X-Etsc-Backend response header; all but /watch forwarded as bytes):
//	  POST   /v1/streams                 create (routed by the body's id)
//	  GET    /v1/streams/{id}            describe
//	  DELETE /v1/streams/{id}            detach + final report
//	  POST   /v1/streams/{id}/push       ingest (plain or positioned)
//	  GET    /v1/streams/{id}/snapshot   export durable state
//	  POST   /v1/streams/{id}/snapshot   restore (routed like create)
//	  GET    /v1/streams/{id}/watch      live SSE/NDJSON feed, passed
//	                                     through with the exactly-once
//	                                     resume contract intact — the
//	                                     router re-subscribes across
//	                                     migrations and backend deaths
//	  GET    /v1/detections?stream=ID    cursor page (routed by ?stream=)
//
//	fan-out, one concurrent call per alive backend (fanOut), merged
//	deterministically:
//	  GET /v1/streams     union of the backends' lists, sorted by id
//	  GET /v1/stats       fleet sum + one row per backend (table order)
//	  GET /metrics        the router's own instruments, then every
//	                      backend's exposition parsed by metrics.Parse,
//	                      relabeled with backend="name" and merged per
//	                      family
//
//	router-local:
//	  GET  /v1/healthz        the router's own liveness (always ok)
//	  GET  /admin/backends    the backend table with probe state
//	  POST /admin/rebalance   migrate every stream back to its hash home
//	  POST /admin/backends    replace the table, then rebalance onto it
//
// Request path. Both binaries dispatch in ServeHTTP on the path exactly
// as sent, with no ServeMux to clean or redirect it, and match /v1
// requests against serve's route table (serve.ParseV1), so they answer an
// unknown path, a wrong method or a missing ?stream= with the same
// envelope. A stream-scoped call other than /watch is forwarded to the
// owner as bytes: the router reads only what routing needs (the table's
// stream id, a create body's id), and the backend's status and body come
// back verbatim, so the backend is the one place a /v1 request is
// validated. An endpoint added to the table is forwarded with no router
// edit. /watch is re-rendered frame by frame through serve's own query
// parser, preamble and frame writer.
//
// Ownership model. The stream's *home* is placement.Index(id, N) over the
// fixed table — process-independent, so any client or operator computes
// it offline. A copy-on-write override map records streams that currently
// live away from home: streams migrated by a rebalance step, and streams
// recovered onto survivors after a backend death. Routing is
// override-first, then home. The overrides live only in this router's
// memory: a restarted router, or a second one over the same table, routes
// those streams to their home, which answers unknown_stream, until
// /admin/rebalance moves them home (pure-hash placement again).
//
// Rebalancing (POST /admin/rebalance, or a table change) moves one stream
// at a time over the wire with transcripts invariant: the router
// write-locks the stream's gate, one of a fixed set of stripes shared by
// hash (in-flight pushes finish, new ones to that stripe wait), polls the
// owner until the stream's queue is drained, GETs the snapshot, POSTs it
// to the new owner, DELETEs the old copy, and installs/clears the
// override. Because pushes are gated, the snapshot is a complete cut and
// nothing is replayed or lost; watchers riding through the move are
// re-subscribed at their cursor by the watch pass-through.
//
// Backend death. A health prober GETs every backend's /v1/healthz; after
// FailThreshold consecutive failures the backend is marked dead and its
// streams are re-registered on the survivors from shared checkpoint
// storage (CheckpointRoot/<backend>/*.ckpt — the files the backend's own
// -checkpoint loop writes, read by serve.ReadCheckpoints as a backend
// boot reads them) via the same ladder as a backend boot: clean
// restore, else fresh re-attach with the checkpointed kind/spec, else
// skip — each counted. The survivor for a stream is
// placement.Index(id, len(survivors)) over the alive backends in table
// order, so concurrent routers (or a restarted one) pick identical
// targets. During the window between death and recovery, requests for the
// affected streams wait up to RouteWait for an override to appear and
// then fail with a structured 503/unavailable + Retry-After — which the
// typed client's WithRetry turns into transparent retry on idempotent
// calls. A checkpoint is a slightly stale cut, so recovered streams
// resume at their checkpointed watermark; at-least-once redelivery via
// positioned pushes (PushAt) makes the replay exactly-once, which the
// kill-a-backend chaos battery pins against hub.Reference.
package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/metrics"
	"etsc/internal/placement"
	"etsc/internal/serve"
)

// BackendSpec names one backend process for Config.
type BackendSpec struct {
	// Name is the stable label used in overrides, checkpoint-storage
	// paths, the X-Etsc-Backend echo, and /metrics relabeling. Defaults
	// to the host:port of URL.
	Name string `json:"name"`
	// URL is the backend's base URL (e.g. "http://node3:8080").
	URL string `json:"url"`
}

// Config assembles a Router.
type Config struct {
	// Backends is the fixed placement table, in placement order: stream
	// id hashes to Backends[placement.Index(id, len(Backends))].
	Backends []BackendSpec

	// CheckpointRoot is the shared checkpoint storage the backends write
	// under (each backend passes -checkpoint CheckpointRoot/<its name>).
	// Empty disables backend-death stream recovery: dead backends' streams
	// stay unavailable until the backend returns.
	CheckpointRoot string

	// ProbeInterval is the health-probe period (default 1s);
	// ProbeTimeout bounds one probe (default ProbeInterval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold is the number of consecutive probe failures that mark
	// a backend dead (default 3).
	FailThreshold int

	// RouteWait bounds how long a request for a stream whose owner is
	// dead waits for recovery to install an override before failing with
	// 503/unavailable (default 2s).
	RouteWait time.Duration

	// HTTPClient overrides the transport of every backend call (tests):
	// forwarded requests, fan-outs, /metrics fetches, migrations and
	// health probes. A probe is bounded by ProbeTimeout through its
	// context.
	HTTPClient *http.Client

	// Logf sinks router diagnostics (default log.Printf).
	Logf func(format string, args ...any)
}

// backend is one table entry at runtime.
type backend struct {
	name string
	base string
	// c is the backend's one client, with WithRetry so transient faults
	// on idempotent calls (reads, DELETE, positioned pushes) retry with
	// backoff inside the router instead of surfacing per-blip. forward
	// and the /metrics fetch send through its raw Forward; the fan-out,
	// watch, migration and probe paths use its typed calls (Health is
	// single-shot even under WithRetry).
	c *client.Client
	// requests is this backend's etsc_router_requests_total series.
	requests *metrics.Counter

	alive atomic.Bool
	// fails is owned by the prober goroutine.
	fails int
}

// Router implements http.Handler over the backend table. Construct with
// New; Start launches the health prober.
type Router struct {
	cfg  Config
	logf func(format string, args ...any)

	// table is the placement table; replaced wholesale by SetBackends
	// (copy-on-write, so routing reads are one atomic load).
	table atomic.Pointer[[]*backend]

	// overrides maps stream id → backend name for streams living away
	// from their hash home (migrated or death-recovered). Copy-on-write
	// under ovMu, read lock-free.
	ovMu      sync.Mutex
	overrides atomic.Pointer[map[string]string]

	// gates serialize migration against forwarded stream traffic: a
	// stream's gate is the stripe placement.Index(id, len(gates)), so
	// memory stays fixed whatever the id population. A migration thus
	// briefly blocks the other streams in its stripe. No path takes a
	// gate while holding one, which keeps the stripes deadlock-free.
	gates [256]sync.RWMutex

	// opMu single-flights rebalances and table swaps.
	opMu sync.Mutex

	// Prober lifecycle.
	probeStop chan struct{}
	probeDone chan struct{}

	// Metrics, built by New.
	reg          *metrics.Registry
	mUnavailable *metrics.Counter
	mDeaths      *metrics.Counter
	mRecovered   *metrics.Counter
	mFallbacks   *metrics.Counter
	mSkipped     *metrics.Counter
	mMoves       *metrics.Counter
}

// New builds a router over the backend table. The table must be
// non-empty; names must be unique (and filesystem-safe when
// CheckpointRoot is set, since they name storage subdirectories).
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: no backends")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.RouteWait <= 0 {
		cfg.RouteWait = 2 * time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	rt := &Router{
		cfg:       cfg,
		logf:      logf,
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	rt.initMetrics()
	table, err := rt.buildTable(cfg.Backends, nil)
	if err != nil {
		return nil, err
	}
	rt.table.Store(&table)
	return rt, nil
}

// buildTable constructs backend entries for specs, reusing entries from
// prev (matched by name+URL) so probe state survives a table swap.
func (rt *Router) buildTable(specs []BackendSpec, prev []*backend) ([]*backend, error) {
	seen := map[string]bool{}
	table := make([]*backend, 0, len(specs))
	for _, sp := range specs {
		name := sp.Name
		u, err := url.Parse(sp.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") {
			return nil, fmt.Errorf("router: backend %q: bad URL %q", name, sp.URL)
		}
		if name == "" {
			name = u.Host
		}
		if seen[name] {
			return nil, fmt.Errorf("router: duplicate backend name %q", name)
		}
		seen[name] = true
		var reused *backend
		for _, b := range prev {
			if b.name == name && b.base == sp.URL {
				reused = b
				break
			}
		}
		if reused != nil {
			table = append(table, reused)
			continue
		}
		opts := []client.Option{client.WithRetry(4, 100*time.Millisecond)}
		if rt.cfg.HTTPClient != nil {
			opts = append(opts, client.WithHTTPClient(rt.cfg.HTTPClient))
		}
		c, err := client.New(sp.URL, opts...)
		if err != nil {
			return nil, fmt.Errorf("router: backend %q: %w", name, err)
		}
		b := &backend{name: name, base: sp.URL, c: c, requests: rt.requestCounter(name)}
		// Optimistic start: backends are presumed alive until the prober
		// says otherwise, so a router boot does not 503 a healthy fleet.
		b.alive.Store(true)
		table = append(table, b)
	}
	return table, nil
}

// ServeHTTP implements http.Handler. Like etsc-serve's, it dispatches on
// the path exactly as sent, with no ServeMux, so every path outside
// /metrics and /admin reaches serve.ParseV1 unchanged.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/metrics":
		rt.handleMetrics(w, r)
	case "/admin/backends":
		rt.handleAdminBackends(w, r)
	case "/admin/rebalance":
		rt.handleAdminRebalance(w, r)
	default:
		rt.handleV1(w, r)
	}
}

// Backends reports the table in placement order with live probe state.
func (rt *Router) Backends() []BackendState {
	table := *rt.table.Load()
	out := make([]BackendState, len(table))
	for i, b := range table {
		out[i] = BackendState{Name: b.name, URL: b.base, Alive: b.alive.Load()}
	}
	return out
}

// BackendState is one /admin/backends row.
type BackendState struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
}

// ---- placement ----

// home returns the stream's hash-home backend index in table.
func home(id string, table []*backend) int { return placement.Index(id, len(table)) }

// byName finds a table entry by name (nil if the name left the table).
func byName(name string, table []*backend) *backend {
	for _, b := range table {
		if b.name == name {
			return b
		}
	}
	return nil
}

// resolve maps id to its current backend: override first, then hash home.
// The returned backend may be dead; route() adds the waiting.
func (rt *Router) resolve(id string) *backend {
	table := *rt.table.Load()
	if ov := rt.overrides.Load(); ov != nil {
		if name, ok := (*ov)[id]; ok {
			if b := byName(name, table); b != nil {
				return b
			}
		}
	}
	return table[home(id, table)]
}

// route resolves id to an alive backend, waiting up to RouteWait for
// death recovery to install an override when the current owner is dead.
// The error, when non-nil, is the structured 503 to return.
func (rt *Router) route(id string) (*backend, *client.APIError) {
	deadline := time.Now().Add(rt.cfg.RouteWait)
	for {
		b := rt.resolve(id)
		if b.alive.Load() {
			return b, nil
		}
		if time.Now().After(deadline) {
			rt.mUnavailable.Inc()
			return nil, serve.Unavailable(fmt.Sprintf("backend %q owning stream %q is unavailable; recovery in progress", b.name, id))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// placeNew picks the backend for a stream being created (or restored)
// right now: the hash home when alive, else the deterministic survivor —
// placement over the alive subset in table order. away reports a survivor
// pick; forward records it as an override once the backend has accepted
// the stream, so subsequent requests route there and a refused create
// leaves no override behind.
func (rt *Router) placeNew(id string) (b *backend, away bool, apiErr *client.APIError) {
	table := *rt.table.Load()
	b = table[home(id, table)]
	if b.alive.Load() {
		return b, false, nil
	}
	alive := aliveBackends(table)
	if len(alive) == 0 {
		rt.mUnavailable.Inc()
		return nil, false, serve.Unavailable("no backend available")
	}
	return alive[placement.Index(id, len(alive))], true, nil
}

// aliveBackends filters the table to its alive members, in table order.
func aliveBackends(table []*backend) []*backend {
	out := make([]*backend, 0, len(table))
	for _, b := range table {
		if b.alive.Load() {
			out = append(out, b)
		}
	}
	return out
}

// setOverride records (or with name == "" clears) a stream's placement
// override. Copy-on-write: routing keeps reading the previous immutable
// map until the swap.
func (rt *Router) setOverride(id, name string) {
	rt.ovMu.Lock()
	defer rt.ovMu.Unlock()
	var next map[string]string
	if cur := rt.overrides.Load(); cur != nil {
		next = make(map[string]string, len(*cur)+1)
		for k, v := range *cur {
			next[k] = v
		}
	} else {
		next = make(map[string]string, 1)
	}
	if name == "" {
		delete(next, id)
	} else {
		next[id] = name
	}
	rt.overrides.Store(&next)
}

// gate returns the stream's migration gate. Forwarded stream traffic
// holds it shared; a migration or DELETE holds it exclusively.
func (rt *Router) gate(id string) *sync.RWMutex {
	return &rt.gates[placement.Index(id, len(rt.gates))]
}

// ---- /v1 dispatch ----

// handleV1 dispatches on serve's route table: the router answers the
// fan-out endpoints, healthz and /watch itself and forwards every other
// endpoint to the stream's owner.
func (rt *Router) handleV1(w http.ResponseWriter, r *http.Request) {
	ep, id, apiErr := serve.ParseV1(r)
	if apiErr != nil {
		serve.WriteError(w, apiErr)
		return
	}
	switch ep {
	case serve.EndpointList:
		rt.v1ListStreams(w, r)
	case serve.EndpointStats:
		rt.v1Stats(w, r)
	case serve.EndpointHealthz:
		serve.WriteJSON(w, http.StatusOK, client.Health{Status: "ok"})
	case serve.EndpointWatch:
		rt.v1Watch(w, r, id)
	default:
		rt.forward(w, r, ep, id)
	}
}

// forward relays one stream-scoped call to stream id's owner as bytes and
// writes the backend's status and body back verbatim: the backend is the
// only place a request is parsed and validated. A create's id is read
// from the body. Creates and restores (the calls that make a stream) are
// placed by placeNew and never retried; every other call is routed to
// wherever the stream lives, and retried under the backend client's
// WithRetry when it is safe to repeat: GETs, DELETE, and pushes that
// carry "at".
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, ep serve.Endpoint, id string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBody))
	if err != nil {
		serve.WriteError(w, serve.BodyError(err))
		return
	}
	place := ep == serve.EndpointCreate || ep == serve.EndpointRestore
	idempotent := r.Method != http.MethodPost
	if ep == serve.EndpointCreate {
		// Decode the whole request as the backend does, so a body it
		// rejects gets the backend's own envelope.
		var req client.CreateStreamRequest
		if apiErr := serve.DecodeBody(body, &req); apiErr != nil {
			serve.WriteError(w, apiErr)
			return
		}
		if req.ID == "" {
			serve.WriteError(w, serve.BadRequest("missing stream id"))
			return
		}
		id = req.ID
	}
	if ep == serve.EndpointPush {
		var req client.PushRequest
		idempotent = serve.DecodeBody(body, &req) == nil && req.At != nil
	}

	g := rt.gate(id)
	unlock := g.RUnlock
	if ep == serve.EndpointDelete {
		// Exclusive: a DELETE must not interleave with a migration of the
		// same stream (the migration would restore a copy the caller just
		// deleted).
		g.Lock()
		unlock = g.Unlock
	} else {
		g.RLock()
	}
	var (
		b      *backend
		away   bool
		apiErr *client.APIError
	)
	if place {
		b, away, apiErr = rt.placeNew(id)
	} else {
		b, apiErr = rt.route(id)
	}
	if apiErr != nil {
		unlock()
		serve.WriteError(w, apiErr)
		return
	}
	resp, err := b.c.Forward(r.Context(), r.Method, r.URL.RequestURI(), body, idempotent)
	if err == nil {
		switch {
		case away && resp.Status >= 200 && resp.Status <= 299:
			rt.setOverride(id, b.name)
		case ep == serve.EndpointDelete && resp.Status == http.StatusOK:
			rt.setOverride(id, "")
		}
	}
	// Released before writing, so a slow reader does not hold the gate.
	unlock()
	b.requests.Inc()
	if err != nil {
		serve.WriteError(w, serve.Unavailable(fmt.Sprintf("backend %q: %v", b.name, err)))
		return
	}
	h := w.Header()
	h.Set(client.BackendHeader, b.name)
	h.Set("Content-Type", "application/json")
	if resp.Status == http.StatusTooManyRequests || resp.Status == http.StatusServiceUnavailable {
		h.Set("Retry-After", "1")
	}
	w.WriteHeader(resp.Status)
	w.Write(resp.Body)
}

// ---- fan-out endpoints ----

// fanOut calls get on every alive backend of table at once and returns
// the results by table index; ok[i] is false where table[i] is dead or
// its call failed. A fan-out never waits on a dead backend, and merging
// in table order keeps the merge independent of response order.
func fanOut[T any](table []*backend, get func(*backend) (T, error)) (vals []T, ok []bool) {
	vals = make([]T, len(table))
	ok = make([]bool, len(table))
	var wg sync.WaitGroup
	for i, b := range table {
		if !b.alive.Load() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := get(b); err == nil {
				vals[i], ok[i] = v, true
			}
		}()
	}
	wg.Wait()
	return vals, ok
}

// v1ListStreams merges every alive backend's stream list, sorted by id.
// A dead backend's streams, or those of one that fails mid-fan-out, are
// absent until recovery re-registers them.
func (rt *Router) v1ListStreams(w http.ResponseWriter, r *http.Request) {
	lists, _ := fanOut(*rt.table.Load(), func(b *backend) ([]client.StreamInfo, error) {
		return b.c.Streams(r.Context())
	})
	var merged []client.StreamInfo
	for _, l := range lists {
		merged = append(merged, l...)
	}
	sort.Slice(merged, func(a, b int) bool { return merged[a].ID < merged[b].ID })
	serve.WriteJSON(w, http.StatusOK, client.StreamList{Streams: merged})
}

// v1Stats sums every alive backend's totals and reports one row per
// backend in table order (Alive false and zero totals where the backend
// is dead or did not answer). The sum is commutative, so the merged
// totals do not depend on response order.
func (rt *Router) v1Stats(w http.ResponseWriter, r *http.Request) {
	table := *rt.table.Load()
	totals, ok := fanOut(table, func(b *backend) (client.Totals, error) {
		return b.c.Stats(r.Context())
	})
	rows := make([]client.BackendTotals, len(table))
	var sum hub.Totals
	for i, b := range table {
		t := totals[i]
		rows[i] = client.BackendTotals{Backend: b.name, Alive: ok[i], Totals: t}
		sum.Streams += t.Streams
		sum.Batches += t.Batches
		sum.Points += t.Points
		sum.QueuedBatches += t.QueuedBatches
		sum.DroppedBatches += t.DroppedBatches
		sum.DroppedPoints += t.DroppedPoints
		sum.ShedBatches += t.ShedBatches
		sum.ShedPoints += t.ShedPoints
		sum.Detections += t.Detections
		sum.Recanted += t.Recanted
		sum.Watchers += t.Watchers
	}
	serve.WriteJSON(w, http.StatusOK, client.RouterStatsResponse{Totals: sum, Backends: rows})
}

// ---- admin ----

func (rt *Router) handleAdminBackends(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		serve.WriteJSON(w, http.StatusOK, map[string]any{"backends": rt.Backends()})
	case http.MethodPost:
		var req struct {
			Backends []BackendSpec `json:"backends"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, serve.MaxBody)).Decode(&req); err != nil {
			serve.WriteError(w, serve.BodyError(err))
			return
		}
		rep, err := rt.SetBackends(req.Backends)
		if err != nil {
			serve.WriteError(w, serve.BadRequest(err.Error()))
			return
		}
		serve.WriteJSON(w, http.StatusOK, rep)
	default:
		serve.WriteError(w, serve.MethodNotAllowed(r, http.MethodGet, http.MethodPost))
	}
}

func (rt *Router) handleAdminRebalance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.WriteError(w, serve.MethodNotAllowed(r, http.MethodPost))
		return
	}
	rep := rt.Rebalance(r.Context())
	serve.WriteJSON(w, http.StatusOK, rep)
}
