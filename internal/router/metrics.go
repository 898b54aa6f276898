// GET /metrics on the router: the router's own instruments plus every
// alive backend's exposition, fetched at scrape time, parsed by
// metrics.Parse, relabeled with backend="name", and merged per family —
// one HELP/TYPE header per family, the backends' series side by side
// under it. The merged body passes metrics.Lint whatever the backends
// send, because a backend degrades only its own contribution: the backend
// label keeps series keys unique across backends, an exposition that does
// not parse is dropped whole, and a family is dropped when its TYPE
// disagrees with an earlier backend's in table order, when it bears the
// name of one of the router's own families, whose series it could
// repeat, or when its samples already carry a backend label, which the
// relabel would repeat. Each drop is logged. A dead (or mid-scrape failing) backend
// contributes nothing; its absence is visible through
// etsc_router_backend_alive.
package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"etsc/internal/metrics"
	"etsc/internal/serve"
)

// initMetrics builds the router's registry: request/unavailability
// counters, death-recovery and rebalance tallies, and per-backend alive
// gauges sampled at scrape time. New calls it before building the backend
// table, whose entries resolve their request counters from it.
func (rt *Router) initMetrics() {
	reg := metrics.NewRegistry()
	rt.reg = reg
	rt.mUnavailable = reg.Counter("etsc_router_unavailable_total",
		"Requests failed 503/unavailable after the route wait expired.")
	rt.mDeaths = reg.Counter("etsc_router_backend_deaths_total",
		"Backends declared dead by the health prober.")
	rt.mRecovered = reg.Counter("etsc_router_recovered_streams_total",
		"Streams restored onto survivors from checkpoints after a backend death.")
	rt.mFallbacks = reg.Counter("etsc_router_recovery_fallbacks_total",
		"Streams re-attached fresh after a backend death (checkpoint state rejected).")
	rt.mSkipped = reg.Counter("etsc_router_recovery_skipped_total",
		"Checkpoint files skipped during backend-death recovery.")
	rt.mMoves = reg.Counter("etsc_router_rebalance_moves_total",
		"Streams migrated between backends by rebalance passes.")
	reg.Collect("etsc_router_backend_alive", "Backend health as seen by the prober (1 alive, 0 dead).",
		metrics.TypeGauge, func(emit func(float64, ...metrics.Label)) {
			for _, b := range *rt.table.Load() {
				v := 0.0
				if b.alive.Load() {
					v = 1
				}
				emit(v, metrics.L("backend", b.name))
			}
		})
	reg.Collect("etsc_router_overrides", "Streams currently placed away from their hash home.",
		metrics.TypeGauge, func(emit func(float64, ...metrics.Label)) {
			n := 0
			if ov := rt.overrides.Load(); ov != nil {
				n = len(*ov)
			}
			emit(float64(n))
		})
}

// requestCounter resolves a backend's etsc_router_requests_total series.
func (rt *Router) requestCounter(name string) *metrics.Counter {
	return rt.reg.Counter("etsc_router_requests_total",
		"Requests proxied to each backend.", metrics.L("backend", name))
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteError(w, serve.MethodNotAllowed(r, http.MethodGet))
		return
	}
	table := *rt.table.Load()
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	bodies, _ := fanOut(table, func(b *backend) ([]byte, error) {
		resp, err := b.c.Forward(ctx, http.MethodGet, "/metrics", nil, false)
		if err == nil && resp.Status != http.StatusOK {
			err = fmt.Errorf("status %d", resp.Status)
		}
		return resp.Body, err
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.writeMetrics(w, table, bodies)
}

// writeMetrics writes the router's own exposition, then the families of
// bodies[i], table[i]'s exposition (nil when it sent none), relabeled and
// merged per family in name order.
func (rt *Router) writeMetrics(w io.Writer, table []*backend, bodies [][]byte) {
	var own bytes.Buffer
	rt.reg.WriteTo(&own)
	// A registry's rendering always parses; only its family names are read.
	ownFams, _ := metrics.Parse(bytes.NewReader(own.Bytes()))
	ownNames := map[string]bool{}
	for _, f := range ownFams {
		ownNames[f.Name] = true
	}
	merged := map[string]*metrics.Family{}
	var names []string
	for i, body := range bodies {
		if body == nil {
			continue
		}
		name := table[i].name
		fams, err := metrics.Parse(bytes.NewReader(body))
		if err != nil {
			rt.logf("router: /metrics: dropped %q's exposition: %v", name, err)
			continue
		}
		tag := metrics.L("backend", name).String()
		for _, f := range fams {
			m := merged[f.Name]
			switch {
			case ownNames[f.Name]:
				rt.logf("router: /metrics: dropped %q's family %s: the router's own", name, f.Name)
				continue
			case m != nil && m.Type != f.Type:
				rt.logf("router: /metrics: dropped %q's family %s: TYPE %s, earlier %s", name, f.Name, f.Type, m.Type)
				continue
			case carriesBackend(f):
				rt.logf("router: /metrics: dropped %q's family %s: its samples carry a backend label", name, f.Name)
				continue
			case m == nil:
				m = &metrics.Family{Name: f.Name, Help: f.Help, Type: f.Type}
				merged[f.Name] = m
				names = append(names, f.Name)
			}
			for _, s := range f.Samples {
				if s.Labels == "" {
					s.Labels = tag
				} else {
					s.Labels = tag + "," + s.Labels
				}
				m.Samples = append(m.Samples, s)
			}
		}
	}
	w.Write(own.Bytes())
	sort.Strings(names)
	for _, name := range names {
		merged[name].WriteTo(w)
	}
}

// carriesBackend reports whether a sample of f already has a backend
// label. Parse rejects a repeated label name, so a sample has one exactly
// when its labels fail to parse beside a second backend label; the
// substring test skips that parse for every sample that cannot have one.
func carriesBackend(f metrics.Family) bool {
	for _, s := range f.Samples {
		if strings.Contains(s.Labels, "backend=") &&
			metrics.Lint(strings.NewReader("# TYPE p untyped\np{backend=\"\","+s.Labels+"} 0\n")) != nil {
			return true
		}
	}
	return false
}
