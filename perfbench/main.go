// Perfbench is the repository's end-to-end benchmark. It drives the
// shipped etsc-serve, etsc-router and etsc-repro binaries through one named
// workload, checks every output against hub.Reference and the
// reproduction's own claim checks, and prints a report followed by one
// JSON line with the workload's metrics:
//
//	perfbench -bin DIR -work DIR --workload fleet --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// and then replays its inputs layer by layer, printing per-layer metrics.
// perfbench/run.sh builds the binaries and supplies -bin and -work.
//
//	perfbench compare OLD.log NEW.log
//
// compares two sets of saved runs metric by metric, refusing runs whose
// input fingerprints differ.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runEnv is where a run finds its binaries and writes its files.
type runEnv struct {
	binDir  string
	work    string // this run's own work directory, removed when it ends
	root    string // shared across runs of one checkout
	seed    int64
	workers int // goroutines for the reference check
}

func (e *runEnv) bin(name string) string { return filepath.Join(e.binDir, name) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Stdout, os.Args[2:]))
	}
	var (
		binDir   = flag.String("bin", "", "directory holding the built etsc-serve, etsc-router and etsc-repro")
		work     = flag.String("work", "", "directory for checkpoints, logs and recorded results")
		name     = flag.String("workload", "", "workload: fleet, sensors or repro")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "seconds of timed windows per run")
		traceArg = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || *traceArg < 0 || *traceArg > 1) {
		err = fmt.Errorf("want --seconds >= 1 and --trace 0 or 1, got %d and %d", *seconds, *traceArg)
	}
	if err == nil && (*binDir == "" || *work == "") {
		err = errors.New("-bin and -work are required (perfbench/run.sh sets them)")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The rendered bodies stay live all run; collect less often so the
	// generator's own GC pauses stay out of the latency tail.
	debug.SetGCPercent(400)

	env := &runEnv{binDir: *binDir, root: *work, seed: *seed, workers: 2}
	env.work = filepath.Join(*work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var ops opCounter
	res, err := run(ctx, os.Stdout, env, w, float64(*seconds), *traceArg == 1, &ops)
	if err == nil {
		err = checkFinite(res)
	}
	if rmErr := os.RemoveAll(env.work); err == nil {
		err = rmErr
	}
	out := result{Correct: err == nil, Attempted: ops.attempted.Load(), Failed: ops.failed.Load(), Metrics: res}
	if err != nil {
		// A failed check fails the run, and the run yields no numbers.
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		out.Metrics = map[string]metric{}
	}
	line, _ := json.Marshal(out) // plain structs and finite floats only
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// run measures one workload and returns its metrics: end-to-end ones, or
// per-layer ones when traced.
func run(ctx context.Context, out io.Writer, env *runEnv, w workload, seconds float64, traced bool, ops *opCounter) (map[string]metric, error) {
	in, err := makeInputs(w, env.seed)
	if err != nil {
		return nil, err
	}
	sh := w.serve
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%v inputs=%s\n", w.name, env.seed, seconds, traced, in.fingerprint)
	lane := ""
	if sh.probeBatch > 0 {
		lane = fmt.Sprintf(", in their own lane of %d-point pushes at %g points/s", sh.probeBatch, sh.probeRate)
	}
	fmt.Fprintf(out, "  serving: %d streams, warm-up %d points in %d-point pushes, then %d-point pushes at %g points/s nominal; %d watched%s; router=%v workers=%d\n",
		sh.streams, in.warmLen, sh.warmBatch, sh.batch, sh.nominalRate, len(in.probes), lane, sh.router, sh.workers)

	sv, err := runServing(ctx, env, w, in, seconds, ops)
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	rp, err := runRepro(ctx, env, w.reproQuick, ops)
	if err != nil {
		return nil, fmt.Errorf("reproduction: %w", err)
	}
	e2e := endToEnd(w, sv, rp)
	reportServing(out, w, sv)
	reportRepro(out, rp)
	fmt.Fprintf(out, "  check: %d final transcripts and %d watched feeds equal hub.Reference; etsc-repro output %s identical across %d rep(s) and earlier runs\n",
		sv.checked, len(in.probes), rp[0].hash, len(rp))
	if err := recordRun(env.root, w.name, traced, e2e); err != nil {
		return nil, err
	}
	if !traced {
		printMetrics(out, "end-to-end", e2e)
		return e2e, nil
	}
	printMetrics(out, "end-to-end (traced run)", e2e)
	reportOverhead(out, env.root, w.name, e2e)
	layers, err := perLayer(ctx, out, env, w, in, sv, ops)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	printMetrics(out, "per-layer", layers)
	return layers, nil
}

// checkFinite refuses a result with a metric that measured nothing (NaN)
// or only misses (+Inf): it would not survive JSON, and it is no number.
func checkFinite(m map[string]metric) error {
	for _, n := range sortedNames(m) {
		if v := m[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v: nothing was measured", n, v)
		}
	}
	return nil
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEnd computes the end-to-end metrics; see README.md for each one.
// Serving metrics pool the quiet windows of each phase, the reproduction's
// take the median of its quiet reps (see quietest).
func endToEnd(w workload, sv *servingResult, rp []reproRun) map[string]metric {
	var cpu time.Duration
	var pts, satPts int64
	var satSecs float64
	for _, i := range sv.quietNominal {
		cpu += sv.windows[i].cpu
		pts += sv.windows[i].pts
	}
	for _, i := range sv.quietSaturate {
		satPts += sv.windows[i].pts
		satSecs += sv.windows[i].secs
	}
	push := summarize(quietPushes(sv))
	var walls, cpus, rss []float64
	for _, r := range quietReps(rp) {
		walls, cpus, rss = append(walls, r.wall.Seconds()), append(cpus, r.cpu.Seconds()), append(rss, float64(r.maxRSS))
	}
	rssMB := float64(sv.serverUse.HWM) / (1 << 20)
	if !w.reproQuick {
		rssMB = median(rss) / (1 << 20)
	}
	return map[string]metric{
		"setup_s":        {median(sv.setupS), "s"},
		"max_pts_per_s":  {float64(satPts) / satSecs, "points/s"},
		"push_p50_ms":    {reportable(push.P50), "ms"},
		"detect_p50_ms":  {detectP50(sv), "ms"},
		"cpu_ms_per_kpt": {ms(cpu) / (float64(pts) / 1000), "ms"},
		"rss_mb":         {rssMB, "MB"},
		"repro_s":        {median(walls), "s"},
		"repro_cpu_s":    {median(cpus), "s"},
	}
}

// quietPushes returns the latencies of the pushes of the quiet nominal
// windows.
func quietPushes(sv *servingResult) []float64 {
	var out []float64
	for _, i := range sv.quietNominal {
		out = append(out, sv.windows[i].pushMs...)
	}
	return out
}

// quietDetects returns the detections settled by a push of a quiet
// nominal window.
func quietDetects(sv *servingResult) []detectSample {
	quiet := map[int]bool{}
	for _, i := range sv.quietNominal {
		quiet[i] = true
	}
	var out []detectSample
	for _, d := range sv.detects {
		if quiet[d.win] {
			out = append(out, d)
		}
	}
	return out
}

// quietByKind returns the alarm delays of quiet detections per kind, with
// an empty entry for a kind that detected only outside the quiet windows.
func quietByKind(sv *servingResult) map[string][]float64 {
	byKind := map[string][]float64{}
	for _, d := range sv.detects {
		byKind[d.kind] = nil
	}
	for _, d := range quietDetects(sv) {
		byKind[d.kind] = append(byKind[d.kind], d.ms)
	}
	return byKind
}

// detectP50 is the mean over the watched kinds of each kind's median
// alarm delay in the quiet windows. A kind's delay follows its
// classifier's cost per batch, and words costs some twenty times what
// chicken does, so a median pooled over kinds would follow the seed's mix
// of detections rather than the code. A kind without quiet detections
// makes it NaN, which fails the run.
func detectP50(sv *servingResult) float64 {
	byKind := quietByKind(sv)
	var sum float64
	for _, ms := range byKind {
		sum += summarize(ms).P50
	}
	return sum / float64(len(byKind))
}

// quietReps returns the reproduction reps the host stole least from, by
// the rule quietest applies to windows.
func quietReps(rp []reproRun) []reproRun {
	steal := make([]float64, len(rp))
	for i, r := range rp {
		steal[i] = r.steal
	}
	var out []reproRun
	for _, i := range quietest(steal) {
		out = append(out, rp[i])
	}
	return out
}

// lateLimitMs is how late, at its tail, the generator may send pushes
// before the run is flagged: beyond it the generator, not the servers,
// shapes the latency tail.
const lateLimitMs = 2.0

func reportServing(out io.Writer, w workload, sv *servingResult) {
	var all, quietAll []float64
	for _, d := range sv.detects {
		all = append(all, d.ms)
	}
	for _, d := range quietDetects(sv) {
		quietAll = append(quietAll, d.ms)
	}
	var kinds []string
	for k, ms := range quietByKind(sv) {
		kinds = append(kinds, fmt.Sprintf("%s %.3f ms (%d)", k, summarize(ms).P50, len(ms)))
	}
	sort.Strings(kinds)
	push, quietPush, late := summarize(sv.pushMs), summarize(quietPushes(sv)), summarize(sv.lateMs)
	det, quietDet := summarize(all), summarize(quietAll)
	quiet := map[int]bool{}
	for _, i := range append(append([]int(nil), sv.quietNominal...), sv.quietSaturate...) {
		quiet[i] = true
	}
	var nomWin, satWin []string
	var tails []float64
	for i, win := range sv.windows {
		mark := ""
		if quiet[i] {
			mark = "*"
		}
		if win.phase == phaseNominal {
			s := summarize(win.pushMs)
			tails = append(tails, reportable(s.Tail))
			nomWin = append(nomWin, fmt.Sprintf("%.3g/%.3g@%.1f%%%s", s.P50, s.P90, 100*win.steal, mark))
		} else {
			satWin = append(satWin, fmt.Sprintf("%.3g@%.1f%%%s", float64(win.pts)/win.secs, 100*win.steal, mark))
		}
	}
	fmt.Fprintf(out, "  setup: %d reps %v s\n", len(sv.setupS), fmtList(sv.setupS))
	fmt.Fprintf(out, "  nominal: %d windows, %.2f s, %d points applied, %d pushes (%d missed), push p50 %.3f ms p90 %.3f ms p%.4g %.3f ms, per-window tails %v ms, generator late p%.4g %.3f ms; in the quiet windows %d pushes, p50 %.3f ms p90 %.3f ms p%.4g %.3f ms\n",
		len(nomWin), sv.nominalSecs, sv.nominalPts, push.N, push.Misses, push.P50, push.P90, 100*push.TailQ, push.Tail, fmtList(tails), 100*late.TailQ, late.Tail,
		quietPush.N, quietPush.P50, quietPush.P90, 100*quietPush.TailQ, quietPush.Tail)
	fmt.Fprintf(out, "  nominal windows, push p50/p90 ms @ host steal (* = quiet, used): %s\n", strings.Join(nomWin, " "))
	fmt.Fprintf(out, "  detect: %d watched detections settled in nominal (%d frames in all), p50 %.3f ms p90 %.3f ms p%.4g %.3f ms; in the quiet windows %d, p50 %.3f ms p90 %.3f ms p%.4g %.3f ms; per kind in the quiet windows, p50: %s\n",
		det.N, sv.frames, det.P50, det.P90, 100*det.TailQ, det.Tail, quietDet.N, quietDet.P50, quietDet.P90, 100*quietDet.TailQ, quietDet.Tail, strings.Join(kinds, ", "))
	fmt.Fprintf(out, "  saturate windows, points/s @ host steal (* = quiet, used): %s; backlog max %d batches\n", strings.Join(satWin, " "), sv.backlogMax)
	if late.Tail > lateLimitMs {
		fmt.Fprintf(out, "  FLAG: generator fell behind (late p%.4g %.3f ms > %g ms); push_* and detect_* of this run are suspect\n", 100*late.TailQ, late.Tail, lateLimitMs)
	}
	if rising(sv.backlog, 4) {
		fmt.Fprintf(out, "  FLAG: backlog trends upward through nominal %v; the nominal phase is invalid (rate above capacity)\n", fmtList(sv.backlog))
	}
	kpt := float64(sv.nominalPts) / 1000
	for i, n := range sv.procNames {
		fmt.Fprintf(out, "  process %s: nominal %.3f ms/kpt, whole run cpu %.2f s, peak rss %.1f MB\n",
			n, ms(sv.perCPU[i])/kpt, sv.procUse[i].CPU.Seconds(), float64(sv.procUse[i].HWM)/(1<<20))
	}
	fmt.Fprintf(out, "  process perfbench (generator): nominal %.3f ms/kpt, whole run cpu %.2f s, peak rss %.1f MB\n",
		ms(sv.loadgenCPU)/kpt, sv.loadgen.CPU.Seconds(), float64(sv.loadgen.HWM)/(1<<20))
}

func reportRepro(out io.Writer, rp []reproRun) {
	for i, r := range rp {
		fmt.Fprintf(out, "  process etsc-repro rep %d: %d experiments, wall %.3f s, cpu %.3f s, peak rss %.1f MB, host steal %.1f%%\n",
			i+1, r.exps, r.wall.Seconds(), r.cpu.Seconds(), float64(r.maxRSS)/(1<<20), 100*r.steal)
	}
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3g", x)
	}
	return s + "]"
}

func printMetrics(out io.Writer, title string, m map[string]metric) {
	fmt.Fprintf(out, "%s metrics:\n", title)
	for _, n := range sortedNames(m) {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// recordRun appends a run's end-to-end metrics to the checkout's run log,
// which a traced run reads to state its tracing overhead.
func recordRun(root, workload string, traced bool, m map[string]metric) error {
	f, err := os.OpenFile(filepath.Join(root, "runs-"+workload+".jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Traced  bool              `json:"traced"`
		Metrics map[string]metric `json:"metrics"`
	}{traced, m})
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// reportOverhead states the traced run's end-to-end metrics against the
// median of the untraced runs recorded in this checkout.
func reportOverhead(out io.Writer, root, workload string, traced map[string]metric) {
	raw, err := os.ReadFile(filepath.Join(root, "runs-"+workload+".jsonl"))
	vals := map[string][]float64{}
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(raw))
		for {
			var r struct {
				Traced  bool              `json:"traced"`
				Metrics map[string]metric `json:"metrics"`
			}
			if dec.Decode(&r) != nil {
				break
			}
			if r.Traced {
				continue
			}
			for n, m := range r.Metrics {
				vals[n] = append(vals[n], m.Value)
			}
		}
	}
	if len(vals) == 0 {
		fmt.Fprintln(out, "tracing overhead: no untraced runs of this workload recorded in this checkout yet")
		return
	}
	fmt.Fprintln(out, "tracing overhead (traced run vs median of untraced runs in this checkout):")
	for _, n := range sortedNames(traced) {
		if len(vals[n]) == 0 {
			continue
		}
		base := median(vals[n])
		fmt.Fprintf(out, "  %-34s %14.6g vs %14.6g (%+.1f%%, %d untraced runs)\n", n, traced[n].Value, base, 100*(traced[n].Value/base-1), len(vals[n]))
	}
}
