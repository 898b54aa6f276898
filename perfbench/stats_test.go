package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"etsc/internal/stream"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 0.99}, {5000, 0.99}, {500, 0.98}, {200, 0.95}, {20, 0.5}, {15, 0.5}, {0, 0.5},
	} {
		if got := tailQuantile(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// With 500 samples the reported tail is p98: exactly ten samples lie
	// beyond it.
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(500 - i)
	}
	s := summarize(xs)
	if s.Tail != 490 {
		t.Fatalf("tail of 1..500 = %v, want 490", s.Tail)
	}
	beyond := 0
	for _, x := range xs {
		if x > s.Tail {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail, want 10", beyond)
	}
}

func TestFailuresCountAsMisses(t *testing.T) {
	// 100 pushes, 5 refused: the p90 tail (ten beyond it) is still a real
	// latency, but the misses sit above every real sample.
	xs := make([]float64, 0, 100)
	for i := 0; i < 95; i++ {
		xs = append(xs, 1)
	}
	for i := 0; i < 5; i++ {
		xs = append(xs, miss)
	}
	s := summarize(xs)
	if s.N != 100 || s.Misses != 5 || s.Tail != 1 {
		t.Fatalf("summary %+v, want 100 samples, 5 misses, tail 1", s)
	}
	// 20 refused: the tail lands on a miss and reads as one.
	for i := 0; i < 15; i++ {
		xs[i] = miss
	}
	s = summarize(xs)
	if !math.IsInf(s.Tail, 1) || reportable(s.Tail) != missValueMs {
		t.Fatalf("tail %v (reported %v), want a miss", s.Tail, reportable(s.Tail))
	}
	if s.P50 != 1 {
		t.Fatalf("median %v, want 1", s.P50)
	}
}

func TestSettlePoints(t *testing.T) {
	dets := []stream.Detection{
		{Start: 0, DecisionAt: 20},
		{Start: 4, DecisionAt: 30},
		{Start: 100, DecisionAt: 110},
		{Start: 101, DecisionAt: 105}, // fires earlier than the one before it
	}
	// Unverified: the detection's own DecisionAt, never before the
	// previous detection's settle point.
	got := settlePoints(dets, false, 44)
	want := []int{20, 30, 110, 110}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unverified settle points %v, want %v", got, want)
		}
	}
	// Verified (words): the end of the detection's window.
	got = settlePoints(dets, true, 44)
	want = []int{43, 47, 143, 144}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verified settle points %v, want %v", got, want)
		}
	}
}

func TestCarrierFindsThePushHoldingAPoint(t *testing.T) {
	s := &streamInput{}
	t0 := time.Unix(0, 0)
	for i, n := range []int{64, 64, 8} {
		s.record(&body{pts: make([]float64, n)}, t0.Add(time.Duration(i)*time.Second), phaseNominal, 0)
	}
	for _, tc := range []struct {
		p    int
		want int64
		ok   bool
	}{{0, 0, true}, {63, 0, true}, {64, 1, true}, {135, 2, true}, {136, 0, false}} {
		rec, ok := s.carrier(tc.p)
		if ok != tc.ok || (ok && rec.due.Unix() != tc.want) {
			t.Errorf("carrier(%d) = %v %v, want push %d %v", tc.p, rec.due.Unix(), ok, tc.want, tc.ok)
		}
	}
}

func TestProcCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (etsc serve (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 50 0 0 20 0 9 0 12345 123456789 2048 18446744073709551615\n"
	got, err := procCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*time.Second {
		t.Fatalf("cpu %v, want 2s (150+50 ticks)", got)
	}
	if _, err := procCPU([]byte("4242 (truncated) S 1 2")); err == nil {
		t.Fatal("short stat line parsed without error")
	}
	if _, err := procCPU([]byte("no command name")); err == nil {
		t.Fatal("stat line without a command name parsed without error")
	}
}

func TestProcHWM(t *testing.T) {
	status := "Name:\tetsc-serve\nVmPeak:\t  900000 kB\nVmHWM:\t   17236 kB\nVmRSS:\t   16000 kB\n"
	got, err := procHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 17236<<10 {
		t.Fatalf("hwm %d, want %d", got, 17236<<10)
	}
	if _, err := procHWM([]byte("Name:\tx\n")); err == nil {
		t.Fatal("status without VmHWM parsed without error")
	}
}

func TestReadUsageSelf(t *testing.T) {
	u, err := readUsage("self")
	if err != nil {
		t.Fatal(err)
	}
	if u.HWM <= 0 {
		t.Fatalf("peak rss %d, want > 0", u.HWM)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// Values from statistics.quantiles(xs, n=4) and statistics.median.
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{3, 1, 2}, 1.0},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 1.25},
	} {
		if got := spread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestRising(t *testing.T) {
	flat := []float64{2, 3, 2, 1, 3, 2, 2, 3, 2}
	if rising(flat, 4) {
		t.Fatal("flat backlog reported rising")
	}
	growing := []float64{0, 1, 2, 6, 9, 12, 16, 20, 25}
	if !rising(growing, 4) {
		t.Fatal("growing backlog not reported rising")
	}
}

func TestCompareRefusesChangedInputs(t *testing.T) {
	run := func(fp string, v float64) string {
		return "perfbench fleet seed=3 seconds=16 trace=false inputs=" + fp + "\n" +
			`{"correct":true,"attempted":1,"failed":0,"metrics":{"push_p50_ms":{"value":` + strconv.FormatFloat(v, 'g', -1, 64) + `,"unit":"ms"}}}` + "\n"
	}
	old, err := parseRuns(strings.NewReader(run("aaaa", 1) + run("aaaa", 3)))
	if err != nil || len(old) != 2 {
		t.Fatalf("parsed %d runs, err %v", len(old), err)
	}
	same, _ := parseRuns(strings.NewReader(run("aaaa", 2)))
	var out strings.Builder
	if err := compareRuns(&out, old, same); err != nil {
		t.Fatalf("same inputs refused: %v", err)
	}
	if !strings.Contains(out.String(), "push_p50_ms") {
		t.Fatalf("comparison lacks the metric:\n%s", out.String())
	}
	changed, _ := parseRuns(strings.NewReader(run("bbbb", 2)))
	if err := compareRuns(&out, old, changed); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("changed inputs not refused: %v", err)
	}
}

func TestHostTicks(t *testing.T) {
	stat := "cpu  340814 0 56119 715212 4999 0 11109 36812 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"
	steal, total, err := hostTicks([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if steal != 36812 || total != 340814+56119+715212+4999+11109+36812 {
		t.Fatalf("steal %d total %d", steal, total)
	}
	if _, _, err := hostTicks([]byte("cpu0 1 2 3\n")); err == nil {
		t.Fatal("a line without the aggregate cpu counters parsed without error")
	}
}

func TestQuietestKeepsQuietWindowsOrTheQuietestThird(t *testing.T) {
	for _, tc := range []struct {
		steal []float64
		want  []int
	}{
		// Every window under 1% steal counts.
		{[]float64{0, 0.005, 0.2, 0.009, 0.01, 0}, []int{0, 1, 3, 5}},
		// Fewer than a third quiet: the third with the least steal, ties
		// to the earlier window, in time order.
		{[]float64{0.2, 0.01, 0.3, 0.01, 0.05, 0.15, 0.01}, []int{1, 3, 6}},
		{[]float64{0.5}, []int{0}},
		{[]float64{0.5, 0.4}, []int{1}},
	} {
		got := quietest(tc.steal)
		if len(got) != len(tc.want) {
			t.Fatalf("quietest(%v) = %v, want %v", tc.steal, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("quietest(%v) = %v, want %v", tc.steal, got, tc.want)
			}
		}
	}
}

func TestDetectP50WeighsKindsEqually(t *testing.T) {
	sv := &servingResult{quietNominal: []int{0}}
	add := func(kind string, n int, ms float64) {
		for i := 0; i < n; i++ {
			sv.detects = append(sv.detects, detectSample{kind: kind, win: 0, ms: ms})
		}
	}
	add("words", 10, 1.0)
	add("chicken", 30, 0.2)
	if got := detectP50(sv); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("detectP50 = %v, want 0.6, the mean of the kinds' medians", got)
	}
	// Three times as many words detections move a pooled median, not this.
	add("words", 60, 1.0)
	if got := detectP50(sv); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("detectP50 after a mix change = %v, want 0.6", got)
	}
	// A kind that detected only outside the quiet windows measured nothing.
	sv.detects = append(sv.detects, detectSample{kind: "gunpoint", win: 2, ms: 0.3})
	if got := detectP50(sv); !math.IsNaN(got) {
		t.Fatalf("detectP50 with a kind lacking quiet detections = %v, want NaN", got)
	}
}
