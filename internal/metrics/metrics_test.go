package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRenderDeterministic pins the exact text rendering: families sorted
// by name, series sorted by label signature, histogram buckets cumulative
// with _sum/_count, escaping applied.
func TestRenderDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("etsc_b_total", "b counter", L("stream", "s2")).Add(3)
	r.Counter("etsc_b_total", "b counter", L("stream", "s1")).Inc()
	r.Collect("etsc_a_depth", "a gauge", TypeGauge, func(emit func(float64, ...Label)) { emit(7) })
	h := r.Histogram("etsc_c_seconds", "c histogram", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP etsc_a_depth a gauge
# TYPE etsc_a_depth gauge
etsc_a_depth 7
# HELP etsc_b_total b counter
# TYPE etsc_b_total counter
etsc_b_total{stream="s1"} 1
etsc_b_total{stream="s2"} 3
# HELP etsc_c_seconds c histogram
# TYPE etsc_c_seconds histogram
etsc_c_seconds_bucket{le="0.1"} 1
etsc_c_seconds_bucket{le="1"} 2
etsc_c_seconds_bucket{le="+Inf"} 3
etsc_c_seconds_sum 5.55
etsc_c_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("rendered exposition:\n%s\nwant:\n%s", got, want)
	}
	// Two scrapes of identical state are byte-identical.
	var b2 strings.Builder
	if _, err := r.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != b.String() {
		t.Error("second scrape differs from first with unchanged state")
	}
	if err := Lint(strings.NewReader(b.String())); err != nil {
		t.Errorf("own rendering fails Lint: %v", err)
	}
}

// TestInstrumentIdentity pins the resolve-once contract: the same name and
// labels return the same instrument, and label order does not matter.
func TestInstrumentIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("k", "1"), L("j", "2"))
	b := r.Counter("x_total", "x", L("j", "2"), L("k", "1"))
	if a != b {
		t.Error("same labels in different order resolved to different counters")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Errorf("aliased counter reads %v, want 2", b.Value())
	}
	if r.Histogram("y_seconds", "y", []float64{1}) != r.Histogram("y_seconds", "y", []float64{1}) {
		t.Error("same histogram resolved twice")
	}
}

// TestCollectCallback pins scrape-time families: fresh values per scrape,
// sorted series, and coexistence with instrument families.
func TestCollectCallback(t *testing.T) {
	r := NewRegistry()
	depth := map[string]float64{"s2": 4, "s1": 9}
	r.Collect("etsc_queue_depth", "per-stream depth", TypeGauge, func(emit func(float64, ...Label)) {
		for id, v := range depth {
			emit(v, L("stream", id))
		}
	})
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP etsc_queue_depth per-stream depth
# TYPE etsc_queue_depth gauge
etsc_queue_depth{stream="s1"} 9
etsc_queue_depth{stream="s2"} 4
`
	if b.String() != want {
		t.Errorf("callback rendering:\n%s\nwant:\n%s", b.String(), want)
	}
	depth["s1"] = 1
	var b2 strings.Builder
	if _, err := r.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), `etsc_queue_depth{stream="s1"} 1`) {
		t.Errorf("second scrape did not observe updated value:\n%s", b2.String())
	}
}

// TestConcurrentUpdates hammers one counter and one histogram from many
// goroutines and checks totals — the atomic contract.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	h := r.Histogram("h_seconds", "h", []float64{1, 10})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 20))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter %v, want %v", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count %v, want %v", h.Count(), workers*per)
	}
}

// TestValidationPanics pins registration-time validation.
func TestValidationPanics(t *testing.T) {
	r := NewRegistry()
	for name, fn := range map[string]func(){
		"bad metric name":   func() { r.Counter("9bad", "x") },
		"bad label name":    func() { r.Counter("ok_total", "x", L("9bad", "v")) },
		"type mismatch":     func() { r.Counter("mix", "x"); r.Histogram("mix", "x", []float64{1}) },
		"empty bounds":      func() { r.Histogram("h0", "x", nil) },
		"unsorted bounds":   func() { r.Histogram("h1", "x", []float64{2, 1}) },
		"histogram collect": func() { r.Collect("hc", "x", TypeHistogram, func(func(float64, ...Label)) {}) },
		"collect vs instrument": func() {
			r.Counter("dual_total", "x")
			r.Collect("dual_total", "x", TypeCounter, func(func(float64, ...Label)) {})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestEscaping pins label-value and help escaping round-tripping through
// the linter.
func TestEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "help with \\ and\nnewline", L("v", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `v="a\"b\\c\nd"`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Errorf("escaped output fails Lint: %v", err)
	}
}

// TestLintRejects feeds the linter known-bad expositions.
func TestLintRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE":           "orphan_total 1\n",
		"bad value":         "# TYPE x counter\nx pizza\n",
		"bad name":          "# TYPE x counter\n9x 1\n",
		"duplicate series":  "# TYPE x counter\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n",
		"suffix on counter": "# TYPE x counter\nx_bucket{le=\"1\"} 1\n",
		"unknown type":      "# TYPE x matrix\nx 1\n",
		"bucket no le":      "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
		"no inf bucket":     "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"non-cumulative":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"inf != count":      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"unquoted label":    "# TYPE x counter\nx{a=1} 1\n",
		"interleaved":       "# TYPE a counter\na 1\n# TYPE b counter\nb 1\na{x=\"1\"} 2\n",
	}
	for name, body := range cases {
		if err := Lint(strings.NewReader(body)); err == nil {
			t.Errorf("%s: Lint accepted:\n%s", name, body)
		}
	}
	// And a known-good one with Inf value and timestamp.
	good := "# HELP x ok\n# TYPE x gauge\nx{a=\"1\"} +Inf 1700000000\nx 2\n"
	if err := Lint(strings.NewReader(good)); err != nil {
		t.Errorf("good exposition rejected: %v", err)
	}
}

// TestHistogramObserveAllocFree pins the hot-path contract: Observe does
// not allocate (it rides inside hub.Push's zero-alloc path).
func TestHistogramObserveAllocFree(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hot_seconds", "hot", DefaultLatencyBuckets)
	c := r.Counter("hot_total", "hot")
	allocs := testing.AllocsPerRun(200, func() {
		h.Observe(3e-4)
		c.Add(2)
	})
	if allocs != 0 {
		t.Errorf("instrument updates allocated %v per run, want 0", allocs)
	}
}

// TestInfRendering pins +Inf bucket rendering and value formatting.
func TestInfRendering(t *testing.T) {
	if formatValue(math.Inf(1)) != "+Inf" || formatValue(math.Inf(-1)) != "-Inf" {
		t.Error("Inf spelling wrong")
	}
	if formatValue(0.25) != "0.25" {
		t.Errorf("formatValue(0.25) = %s", formatValue(0.25))
	}
}
