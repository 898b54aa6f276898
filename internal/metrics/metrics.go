// Package metrics is a dependency-free Prometheus instrumentation core:
// counters, gauges, and fixed-bucket histograms behind a Registry that
// renders the Prometheus text exposition format (version 0.0.4). It exists
// so the serving layer can expose a /metrics endpoint without pulling the
// prometheus client library into a repo that deliberately has no
// third-party dependencies.
//
// Two registration styles cover the two cost profiles:
//
//   - Instruments (Counter/Histogram) are updated on the hot path.
//     Every update is a single atomic op — no locks, no allocation — so
//     they are safe inside paths pinned by the zero-allocation batteries
//     (hub.Push observes its latency histogram this way).
//   - Collect registers a callback family sampled only at scrape time, for
//     values that already exist elsewhere (per-stream queue depths out of
//     hub.Snapshot, per-kind detection tallies). High-cardinality state
//     costs nothing between scrapes.
//
// Rendering is deterministic: families sort by name, series sort by label
// signature, so two scrapes of identical state are byte-identical — tests
// pin output textually. Metric and label names are validated at
// registration (panic on violation: a bad name is a programming error, not
// a runtime condition).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Type is a metric family's kind, as rendered in the # TYPE line.
type Type string

// The supported family types.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// Label is one name="value" pair attached to a series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// String renders l as the text format writes a label pair: name="value",
// with the value escaped.
func (l Label) String() string { return l.Name + `="` + escapeLabel(l.Value) + `"` }

// atomicFloat is a float64 updated via compare-and-swap on its bits; Add is
// lock-free and allocation-free.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use and allocation-free.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; negative deltas are a caller bug (counters are monotone) and
// are ignored rather than corrupting the series.
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.v.Add(v)
}

// Value reads the current total.
func (c *Counter) Value() float64 { return c.v.Value() }

// Histogram is a fixed-bucket distribution. Observe is a binary search
// plus two atomic ops — safe on hot paths.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DefaultLatencyBuckets spans in-process push latencies (sub-microsecond)
// out to multi-second stalls, in seconds.
var DefaultLatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// CollectFunc is a scrape-time sample producer for a callback family: call
// emit once per series. Values are read fresh on every scrape.
type CollectFunc func(emit func(value float64, labels ...Label))

// series is one instrument plus its rendered label signature.
type series struct {
	sig    string // `{a="b",c="d"}` or "" — sorted by the family renderer
	labels []Label
	ctr    *Counter
	hist   *Histogram
}

// family is one named metric with its type, help, and series.
type family struct {
	name string
	help string
	typ  Type

	mu      sync.Mutex
	series  map[string]*series
	collect CollectFunc // non-nil for callback families
	bounds  []float64   // histogram families share bucket bounds
}

// Registry holds metric families and renders them. The zero value is not
// usable; construct with NewRegistry. All methods are safe for concurrent
// use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// Counter registers (or finds) the counter family name and returns the
// series for the given labels. Repeated calls with the same name and
// labels return the same *Counter, so instruments can be resolved once at
// construction time and updated lock-free afterwards.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.family(name, help, TypeCounter, nil, nil).get(labels)
	return s.ctr
}

// Histogram registers (or finds) the histogram family name with the given
// ascending bucket bounds (+Inf implicit) and returns the series for the
// labels. Bounds must match on every call for the same family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not strictly ascending: %v", name, bounds))
		}
	}
	s := r.family(name, help, TypeHistogram, nil, bounds).get(labels)
	return s.hist
}

// Collect registers a callback family: fn runs on every scrape and emits
// the family's current series. typ must be TypeCounter or TypeGauge
// (histograms need bucket state and are instrument-only). A name can host
// either instruments or a callback, never both.
func (r *Registry) Collect(name, help string, typ Type, fn CollectFunc) {
	if typ != TypeCounter && typ != TypeGauge {
		panic(fmt.Sprintf("metrics: Collect(%q) type must be counter or gauge, got %q", name, typ))
	}
	if fn == nil {
		panic(fmt.Sprintf("metrics: Collect(%q) with nil func", name))
	}
	r.family(name, help, typ, fn, nil)
}

// family finds or creates a family, validating cross-call consistency.
func (r *Registry) family(name, help string, typ Type, collect CollectFunc, bounds []float64) *family {
	checkName(name, false)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, collect: collect, bounds: bounds}
		if collect == nil {
			f.series = map[string]*series{}
		}
		r.fams[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: family %q registered as %s, requested as %s", name, f.typ, typ))
	}
	if (f.collect != nil) != (collect != nil) {
		panic(fmt.Sprintf("metrics: family %q mixes callback and instrument registration", name))
	}
	if typ == TypeHistogram && !equalBounds(f.bounds, bounds) {
		panic(fmt.Sprintf("metrics: histogram %q re-registered with different bounds", name))
	}
	return f
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get finds or creates the series for labels within a family.
func (f *family) get(labels []Label) *series {
	sig := labelSignature(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[sig]; ok {
		return s
	}
	s := &series{sig: sig, labels: append([]Label(nil), labels...)}
	switch f.typ {
	case TypeCounter:
		s.ctr = &Counter{}
	case TypeHistogram:
		s.hist = &Histogram{
			bounds: append([]float64(nil), f.bounds...),
			counts: make([]atomic.Uint64, len(f.bounds)+1),
		}
	}
	f.series[sig] = s
	return s
}

// labelSignature renders labels to their canonical sorted `{...}` form —
// the series key and the rendered suffix.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(a, b int) bool { return ls[a].Name < ls[b].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		checkName(l.Name, true)
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.String())
	}
	b.WriteByte('}')
	return b.String()
}

// checkName validates a metric or label name against the Prometheus data
// model ([a-zA-Z_:][a-zA-Z0-9_:]*; label names additionally without ':').
func checkName(name string, label bool) {
	ok := len(name) > 0
	for i := 0; ok && i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && !label:
		case c >= '0' && c <= '9' && i > 0:
		default:
			ok = false
		}
	}
	if !ok {
		what := "metric"
		if label {
			what = "label"
		}
		panic(fmt.Sprintf("metrics: invalid %s name %q", what, name))
	}
}

// escapeLabel escapes a label value per the text format: backslash, the
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a help string per the text format: backslash and
// newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a sample value; +Inf/-Inf/NaN use the text-format
// spellings.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders the registry in the Prometheus text exposition format:
// families sorted by name, series sorted by label signature, each family
// preceded by its # HELP and # TYPE lines. It implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// render writes one family's # HELP/# TYPE header and all its series.
func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)

	if f.collect != nil {
		// Callback family: gather emissions, then sort for determinism.
		type sample struct {
			sig string
			v   float64
		}
		var samples []sample
		f.collect(func(value float64, labels ...Label) {
			samples = append(samples, sample{sig: labelSignature(labels), v: value})
		})
		sort.Slice(samples, func(a, b int) bool { return samples[a].sig < samples[b].sig })
		for _, s := range samples {
			fmt.Fprintf(b, "%s%s %s\n", f.name, s.sig, formatValue(s.v))
		}
		return
	}

	f.mu.Lock()
	ss := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		ss = append(ss, s)
	}
	f.mu.Unlock()
	sort.Slice(ss, func(a, b int) bool { return ss[a].sig < ss[b].sig })

	for _, s := range ss {
		switch f.typ {
		case TypeCounter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, s.sig, formatValue(s.ctr.Value()))
		case TypeHistogram:
			s.renderHistogram(b, f.name)
		}
	}
}

// renderHistogram writes the cumulative _bucket series plus _sum/_count.
func (s *series) renderHistogram(b *strings.Builder, name string) {
	h := s.hist
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketSig(s.labels, bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketSig(s.labels, math.Inf(1)), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.sig, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.sig, cum)
}

// bucketSig is the series' label signature with the bucket's le label
// appended.
func bucketSig(labels []Label, bound float64) string {
	le := Label{Name: "le", Value: formatValue(bound)}
	return labelSignature(append(append([]Label(nil), labels...), le))
}
