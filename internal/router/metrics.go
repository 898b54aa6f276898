// GET /metrics on the router: the router's own instruments plus every
// alive backend's exposition, fetched at scrape time, relabeled with
// backend="name", and merged per family — one HELP/TYPE header per
// family, the backends' series side by side under it. The merged output
// passes the repo's own exposition linter (metrics.Lint): the backend
// label keeps series keys unique across backends, and family headers are
// emitted exactly once in sorted order. A dead (or mid-scrape failing)
// backend contributes nothing; its absence is visible through
// etsc_router_backend_alive.
package router

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
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

// family is one merged metric family across backends.
type family struct {
	help    string
	typ     string
	samples []string
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteError(w, serve.MethodNotAllowed(r, http.MethodGet))
		return
	}
	table := *rt.table.Load()
	texts := make([]string, len(table))
	var wg sync.WaitGroup
	hc := rt.cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Second}
	}
	for i, b := range table {
		if !b.alive.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.base+"/metrics", nil)
			if err != nil {
				return
			}
			resp, err := hc.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
			if err != nil {
				return
			}
			texts[i] = string(raw)
		}(i, b)
	}
	wg.Wait()

	fams := map[string]*family{}
	var order []string
	for i, text := range texts {
		if text == "" {
			continue
		}
		mergeExposition(fams, &order, text, table[i].name)
	}
	sort.Strings(order)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.reg.WriteTo(w)
	for _, name := range order {
		f := fams[name]
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ)
		for _, s := range f.samples {
			fmt.Fprintln(w, s)
		}
	}
}

// mergeExposition parses one backend's text exposition and folds its
// families into fams, tagging every sample with backend="name". Unknown
// or malformed lines are dropped — the merged scrape must stay lintable
// even when one backend misbehaves.
func mergeExposition(fams map[string]*family, order *[]string, text, backendName string) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var cur string
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue
			}
			switch fields[1] {
			case "HELP":
				name := fields[2]
				f := getFamily(fams, order, name)
				if f.help == "" && len(fields) == 4 {
					f.help = fields[3]
				}
			case "TYPE":
				if len(fields) < 4 {
					continue
				}
				name := fields[2]
				f := getFamily(fams, order, name)
				if f.typ == "" {
					f.typ = fields[3]
				}
				cur = name
			}
			continue
		}
		fam := sampleFamily(line, cur)
		if fam == "" {
			continue
		}
		f := getFamily(fams, order, fam)
		if f.typ == "" {
			f.typ = "untyped"
		}
		f.samples = append(f.samples, relabel(line, backendName))
	}
}

func getFamily(fams map[string]*family, order *[]string, name string) *family {
	if f, ok := fams[name]; ok {
		return f
	}
	f := &family{}
	fams[name] = f
	*order = append(*order, name)
	return f
}

// sampleFamily maps a sample line's metric name to its family: histogram
// suffixes (_bucket/_sum/_count) of the current TYPE'd family fold into
// it; anything else is its own family name. A line that does not start
// with a well-formed metric name followed by labels or a value maps to
// "" and is dropped by the caller.
func sampleFamily(line, cur string) string {
	name := metricName(line)
	if name == "" || !strings.Contains(line[len(name):], " ") {
		return ""
	}
	if cur != "" && (name == cur || name == cur+"_bucket" || name == cur+"_sum" || name == cur+"_count") {
		return cur
	}
	return name
}

// metricName returns the leading Prometheus metric name of a sample line
// ("" when the line does not start with one ending at '{' or ' ').
func metricName(line string) string {
	i := 0
	for i < len(line) {
		c := line[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			break
		}
		i++
	}
	if i == 0 || i >= len(line) || (line[i] != '{' && line[i] != ' ') {
		return ""
	}
	return line[:i]
}

// relabel injects backend="name" as the first label of a sample line.
func relabel(line, backendName string) string {
	tag := fmt.Sprintf("backend=%q", backendName)
	if i := strings.Index(line, "{"); i > 0 {
		return line[:i+1] + tag + "," + line[i+1:]
	}
	if i := strings.IndexByte(line, ' '); i > 0 {
		return line[:i] + "{" + tag + "}" + line[i:]
	}
	return line
}
