package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"etsc/internal/etsc"
	"etsc/internal/hub"
	"etsc/internal/router"
	"etsc/internal/serve"
	"etsc/internal/stream"
	"etsc/internal/ts"
)

// The traced run measures layers from outside, by timing calls into their
// public functions on the inputs the live run just sent:
//
//   - a classifier replay drives each stream's points through
//     stream.Online.PushBatch, through etsc.OpenSessionMode(...).Extend on
//     the same candidate windows, through ts.PrefixDistBank.Extend on the
//     gunpoint kind's references, and through hub.Reference;
//   - a hub replay pushes the start of the nominal schedule into an
//     in-process hub.Hub at its due times, with checkpoint exports
//     (hub.Export) running beside ingest;
//   - a ladder replay pushes the same schedule through an in-process
//     router.Router in front of two serve.Server backends, with
//     http.Handler wrappers and a router transport recording spans, a
//     serve.Checkpointer synced beside ingest, and hub.Watch subscribers
//     timing when each probe detection settles.
//
// Classifiers and sessions inside a serving hub are never decorated:
// etsc.SnapshotSessionState switches on concrete session types, so a
// wrapped session would make hub.Export fail, and the engine-mode dispatch
// is unexported. Every replay stacks every layer, so each layer is
// measured on every workload's inputs; the live run reflects the deployed
// topology.

// replayWindows is how many of the live run's timed windows of each phase
// the replays take: the hub and ladder replays push the first
// replayWindows nominal windows' schedule back to back, and the classifier
// replay every point up to the end of the last of them.
const replayWindows = 3

// perLayer runs the replays and returns the per-layer metrics.
func perLayer(ctx context.Context, out io.Writer, env *runEnv, w workload, in *inputs, sv *servingResult, ops *opCounter) (map[string]metric, error) {
	m := map[string]metric{}
	kpt := float64(sv.nominalPts) / 1000
	late := summarize(sv.lateMs)
	m["loadgen.late_p99_ms"] = metric{late.Tail, "ms"}
	m["loadgen.cpu_ms_per_kpt"] = metric{ms(sv.loadgenCPU) / kpt, "ms"}
	// The router's CPU per 1k points is the etsc-router line every report
	// prints; it is no per-layer metric, since fleet has no router.
	var serveCPU, serverCPU time.Duration
	for i, n := range sv.procNames {
		serverCPU += sv.perCPU[i]
		if strings.HasPrefix(n, "etsc-serve") {
			serveCPU += sv.perCPU[i]
		}
	}
	m["serve.cpu_ms_per_kpt"] = metric{ms(serveCPU) / kpt, "ms"}
	m["hub.backlog_max"] = metric{float64(sv.backlogMax), "batches"}
	m["metrics.scrape_ms_p50"] = metric{median(sv.scrapeMs), "ms"}
	m["watch.frames"] = metric{float64(sv.frames), "count"}
	m["watch.reconnects"] = metric{float64(sv.reconn), "count"}

	cl, err := classifierReplay(in, 2*(replayWindows-1))
	if err != nil {
		return nil, err
	}
	cl.report(out)
	cl.metrics(m)
	// The split the workloads were chosen for: how much of the servers'
	// nominal CPU the classifier layers (stream, etsc, ts) account for.
	share := cl.streamUsPerKpt / 1000 / (ms(serverCPU) / kpt)
	fmt.Fprintf(out, "  split: classifier layers (stream, etsc, ts) %.3f ms/kpt of %.3f ms/kpt server-side CPU in nominal, share %.2f; the request path and the rest (router, serve, hub, runtime) %.2f\n",
		cl.streamUsPerKpt/1000, ms(serverCPU)/kpt, share, 1-share)

	sched := nominalSchedule(in, sv.windows, replayWindows)
	if err := hubReplay(ctx, out, w, in, sched, m); err != nil {
		return nil, fmt.Errorf("hub replay: %w", err)
	}
	if err := ladderReplay(ctx, out, env, w, in, sched, m, ops); err != nil {
		return nil, fmt.Errorf("ladder replay: %w", err)
	}
	// The reproduction's experiments, each as its own etsc-repro process
	// at the workload's size.
	for _, g := range experimentGroups {
		args := []string{"-run", g.run}
		if w.reproQuick {
			args = append(args, "-quick")
		}
		r, err := runReproOnce(ctx, env, ops, args...)
		if err != nil {
			return nil, err
		}
		m[g.metric] = metric{ms(r.wall), "ms"}
	}
	return m, nil
}

// classifierStats is the classifier replay's tally.
type classifierStats struct {
	points         int64 // stream points replayed
	streamUs       float64
	streamUsPerKpt float64
	streamSelfUs   float64 // Online.PushBatch over scripted sessions
	fired, kept    int
	verifyUs       []float64

	kindPoints  map[string]int64
	kindExtendU map[string]float64
	extends     int64
	extendPts   int64
	ready       int64
	candidates  int64

	kernelOps   int64
	kernelBytes int64
	kernelNs    float64

	refUs float64
}

// classifierReplay replays, per stream, every point up to the end of timed
// window lastWin, at each layer doing exactly the work stream.Online does
// over that prefix: Online.PushBatch over the stream's pushes, and every
// candidate window Online opens, extended step by step through the session
// API until it decides or runs out of points.
func classifierReplay(in *inputs, lastWin int) (*classifierStats, error) {
	st := &classifierStats{kindPoints: map[string]int64{}, kindExtendU: map[string]float64{}}
	refs := map[string][][]float64{}
	for _, k := range in.kinds {
		for _, inst := range k.TrainSet.Instances {
			refs[k.Name] = append(refs[k.Name], inst.Series)
		}
	}
	for _, s := range in.streams {
		var batches [][]float64
		to := 0 // end of the stream's replayed pushes
		for i, p := range s.pushes {
			if p.win > lastWin {
				break
			}
			batches = append(batches, s.accepted[i].pts)
			to = p.end
		}
		series := s.series()[:to]
		online, err := stream.NewOnlineEngine(s.cfg.Classifier, s.cfg.Stride, s.cfg.Step, s.cfg.Engine)
		if err != nil {
			return nil, err
		}
		supp := stream.NewSuppressor(s.cfg.Suppress)
		for _, b := range batches {
			t0 := time.Now()
			dets := online.PushBatch(b)
			st.streamUs += us(time.Since(t0))
			for _, det := range dets {
				st.fired++
				if !supp.Keep(det) {
					continue
				}
				st.kept++
				if s.cfg.Verifier != nil && det.Start+s.window <= len(series) {
					win := series[det.Start : det.Start+s.window]
					t0 := time.Now()
					s.cfg.Verifier.Verify(win, det.Label)
					st.verifyUs = append(st.verifyUs, us(time.Since(t0)))
				}
			}
		}
		st.points += int64(to)
		st.kindPoints[s.kind] += int64(to)

		// The same candidate windows through the session API, timed as one
		// block per stream so timer reads stay out of the per-candidate
		// cost, then for the kind with a reference bank, through the
		// distance kernel with the same Extend chunks.
		step, stride := s.cfg.Step, s.cfg.Stride
		var chunks [][]int
		var readyAt []int // per candidate: the Extend that decided, or 0
		t0 := time.Now()
		for c := 0; c < to; c += stride {
			sess := etsc.OpenSessionMode(s.cfg.Classifier, s.cfg.Engine)
			var cc []int
			at := 0
			for seen, next := 0, step; next <= s.window && c+next <= to; seen, next = next, next+step {
				d := sess.Extend(series[c+seen : c+next])
				cc = append(cc, next-seen)
				if d.Ready {
					st.ready++
					at = len(cc)
					break
				}
			}
			chunks = append(chunks, cc)
			readyAt = append(readyAt, at)
		}
		st.kindExtendU[s.kind] += us(time.Since(t0))

		// The same pushes through Online.PushBatch once more, its sessions
		// replaced by a script of the decisions just recorded: the stream
		// layer's own work, with no classifier work under it.
		scr, err := stream.NewOnlineEngine(&scripted{full: s.window, readyAt: readyAt}, stride, step, s.cfg.Engine)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		for _, b := range batches {
			scr.PushBatch(b)
		}
		st.streamSelfUs += us(time.Since(t0))
		for _, cc := range chunks {
			st.candidates++
			st.extends += int64(len(cc))
			for _, n := range cc {
				st.extendPts += int64(n)
			}
		}
		if bankRefs := refs[s.kind]; s.kind == "gunpoint" {
			t0 := time.Now()
			for i, cc := range chunks {
				bank := ts.NewPrefixDistBank(bankRefs)
				off := i * stride
				for _, n := range cc {
					bank.Extend(series[off : off+n])
					off += n
					st.kernelOps += int64(len(bankRefs) * n)
					// Each reference-point update reads one reference
					// value; each Extend reads and writes every running
					// sum once.
					st.kernelBytes += int64(8*len(bankRefs)*n + 16*len(bankRefs))
				}
			}
			st.kernelNs += float64(time.Since(t0).Nanoseconds())
		}
		t0 = time.Now()
		if _, err := hub.Reference(s.cfg, series); err != nil {
			return nil, err
		}
		st.refUs += us(time.Since(t0))
	}
	if st.points == 0 {
		return nil, fmt.Errorf("no points to replay")
	}
	st.streamUsPerKpt = st.streamUs / (float64(st.points) / 1000)
	return st, nil
}

func (st *classifierStats) metrics(m map[string]metric) {
	kpt := float64(st.points) / 1000
	m["reference.us_per_pt"] = metric{st.refUs / float64(st.points), "us"}
	m["stream.pushbatch_self_us_per_kpt"] = metric{st.streamSelfUs / kpt, "us"}
	m["stream.candidates_per_kpt"] = metric{float64(st.candidates) / kpt, "count"}
	m["stream.verify_us_p50"] = metric{median(st.verifyUs), "us"}
	m["stream.kept_ratio"] = metric{float64(st.kept) / float64(max(st.fired, 1)), "ratio"}
	for _, k := range []string{"words", "gunpoint", "chicken"} {
		m["etsc.extend_us_per_kpt."+k] = metric{st.kindExtendU[k] / (float64(max(st.kindPoints[k], 1)) / 1000), "us"}
	}
	m["etsc.points_per_extend"] = metric{float64(st.extendPts) / float64(max(st.extends, 1)), "count"}
	m["etsc.ready_ratio"] = metric{float64(st.ready) / float64(max(st.extends, 1)), "ratio"}
	m["ts.kernel_ops_per_pt"] = metric{float64(st.kernelOps) / float64(st.points), "count"}
	m["ts.kernel_bytes_per_pt"] = metric{float64(st.kernelBytes) / float64(st.points), "bytes"}
	m["ts.kernel_ns_per_op"] = metric{st.kernelNs / float64(max(st.kernelOps, 1)), "ns"}
}

func (st *classifierStats) report(out io.Writer) {
	fmt.Fprintf(out, "  classifier replay: %d points, Online.PushBatch %.0f us/kpt (%.0f of it the stream layer's own), %d candidates, %d extends, %d detections fired, %d kept, %d verified\n",
		st.points, st.streamUsPerKpt, st.streamSelfUs/(float64(st.points)/1000), st.candidates, st.extends, st.fired, st.kept, len(st.verifyUs))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// scripted is an etsc.IncrementalClassifier that replays recorded
// decisions at no cost: the k-th session opened turns Ready on its
// readyAt[k]-th Extend, or never when that is 0. stream.Online opens one
// session per candidate in start order, the order the decisions were
// recorded in.
type scripted struct {
	full    int
	readyAt []int
	opened  int
}

func (c *scripted) Name() string                           { return "scripted" }
func (c *scripted) FullLength() int                        { return c.full }
func (c *scripted) ClassifyPrefix([]float64) etsc.Decision { return etsc.Decision{} }
func (c *scripted) ForcedLabel([]float64) int              { return 0 }

func (c *scripted) NewIncrementalSession() etsc.IncrementalSession {
	s := &scriptedSession{}
	if c.opened < len(c.readyAt) {
		s.readyAt = c.readyAt[c.opened]
	}
	c.opened++
	return s
}

type scriptedSession struct{ n, readyAt int }

func (s *scriptedSession) Extend([]float64) etsc.Decision {
	s.n++
	return etsc.Decision{Ready: s.n == s.readyAt}
}

// replayPush is one push of the nominal schedule: which stream, which
// body, and when it was due relative to the schedule's start.
type replayPush struct {
	s   *streamInput
	b   *body
	off time.Duration
}

// nominalSchedule returns the pushes of the live run's first n nominal
// windows in due order, the windows laid back to back.
func nominalSchedule(in *inputs, windows []windowResult, n int) []replayPush {
	var out []replayPush
	for _, s := range in.streams {
		for i, p := range s.pushes {
			if p.phase == phaseNominal && p.win/2 < n {
				off := time.Duration(p.win/2)*window + p.due.Sub(windows[p.win].start)
				out = append(out, replayPush{s: s, b: s.accepted[i], off: off})
			}
		}
	}
	sortPushes(out)
	return out
}

// sortPushes orders by due offset. The sort is stable, so per-stream
// order holds even where two pushes share a due time.
func sortPushes(ps []replayPush) {
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].off < ps[j].off })
}

// warmSeries returns, per stream, the points it was sent in warm-up.
func warmSeries(s *streamInput) [][]float64 {
	var out [][]float64
	for i, p := range s.pushes {
		if p.phase != phaseWarm {
			break
		}
		out = append(out, s.accepted[i].pts)
	}
	return out
}

// queueProbe measures queue wait from outside the hub: the time from a
// batch's admission until the stream's applied position passes it, read
// by polling hub.Snapshot.
type queueProbe struct {
	mu      sync.Mutex
	pending map[string][]pendingBatch
	waitsMs []float64
}

type pendingBatch struct {
	end int
	at  time.Time
}

func (q *queueProbe) admitted(id string, end int, at time.Time) {
	q.mu.Lock()
	q.pending[id] = append(q.pending[id], pendingBatch{end, at})
	q.mu.Unlock()
}

// poll runs until stop closes, matching applied positions to admissions.
func (q *queueProbe) poll(snap func() map[string]hub.StreamStats, stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		stats := snap()
		now := time.Now()
		q.mu.Lock()
		for id, st := range stats {
			pb := q.pending[id]
			n := 0
			for n < len(pb) && pb[n].end <= st.Position {
				q.waitsMs = append(q.waitsMs, ms(now.Sub(pb[n].at)))
				n++
			}
			q.pending[id] = pb[n:]
		}
		q.mu.Unlock()
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
}

// hubReplay pushes the schedule into an in-process hub at its due times,
// timing hub.Push, while a second goroutine exports streams round-robin.
func hubReplay(ctx context.Context, out io.Writer, w workload, in *inputs, sched []replayPush, m map[string]metric) error {
	h, err := hub.New(hub.Config{Workers: w.serve.workers})
	if err != nil {
		return err
	}
	defer h.Close()
	pos := map[string]int{}
	for _, s := range in.streams {
		if err := h.Attach(s.id, s.cfg); err != nil {
			return err
		}
		for _, b := range warmSeries(s) {
			if err := h.Push(s.id, b); err != nil {
				return err
			}
			pos[s.id] += len(b)
		}
	}
	h.Flush()

	q := &queueProbe{pending: map[string][]pendingBatch{}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var exportMs []float64
	var exportBytes, exports int64
	wg.Add(2)
	go func() { defer wg.Done(); q.poll(h.Snapshot, stop) }()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := in.streams[i%len(in.streams)]
			t0 := time.Now()
			data, err := h.Export(s.id)
			if err != nil {
				continue
			}
			exportMs = append(exportMs, ms(time.Since(t0)))
			exportBytes += int64(len(data))
			exports++
			time.Sleep(time.Millisecond)
		}
	}()

	var pushUs []float64
	blocked := 0
	start := time.Now()
	for _, p := range sched {
		sleepUntil(start.Add(p.off))
		t0 := time.Now()
		if err := h.Push(p.s.id, p.b.pts); err != nil {
			close(stop)
			wg.Wait()
			return err
		}
		d := time.Since(t0)
		pos[p.s.id] += len(p.b.pts)
		q.admitted(p.s.id, pos[p.s.id], t0.Add(d))
		pushUs = append(pushUs, us(d))
		if d > blockedAfter {
			blocked++
		}
	}
	h.Flush()
	time.Sleep(time.Millisecond) // one more poll sees the final positions
	close(stop)
	wg.Wait()
	qw := summarize(q.waitsMs)
	m["hub.push_us_p50"] = metric{median(pushUs), "us"}
	m["hub.blocked_pushes"] = metric{float64(blocked), "count"}
	m["hub.queue_wait_ms_p50"] = metric{qw.P50, "ms"}
	m["hub.queue_wait_ms_p99"] = metric{qw.Tail, "ms"}
	ex := summarize(exportMs)
	m["hub.export_ms_p99"] = metric{ex.Tail, "ms"}
	m["hub.export_bytes_per_stream"] = metric{float64(exportBytes) / float64(max(exports, 1)), "bytes"}
	fmt.Fprintf(out, "  hub replay: %d pushes over %.1f s, %d blocked (> %v), queue wait p50 %.3f ms p%.4g %.3f ms over %d batches, %d exports p%.4g %.3f ms\n",
		len(pushUs), float64(replayWindows)*window.Seconds(), blocked, blockedAfter, qw.P50, 100*qw.TailQ, qw.Tail, qw.N, exports, 100*ex.TailQ, ex.Tail)
	return nil
}

// blockedAfter separates a push that waited on a full queue from plain
// admission, which takes about a microsecond.
const blockedAfter = 50 * time.Microsecond

// span is one timed call at a layer boundary. Spans of one request share
// id; parent names the layer that caused this one.
type span struct {
	name, parent string
	id           int64
	start, end   time.Time
	status       int
	bytes        int64
}

// spanLog keeps spans in memory until the replay ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	ids   atomic.Int64
}

func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans = nil
	l.mu.Unlock()
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

type spanKey struct{}

// spanHeader carries the request id from the router's transport to the
// backend's handler wrapper.
const spanHeader = "X-Perfbench-Span"

// statusWriter records the status a push handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) { w.status = code; w.ResponseWriter.WriteHeader(code) }

// traced wraps a layer's handler: every push request becomes a span, its id
// taken from the caller's header or freshly assigned, and carried in the
// request context for the transport below.
func traced(l *spanLog, name, parent string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/push") {
			next.ServeHTTP(w, r)
			return
		}
		id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			id = l.ids.Add(1)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		l.add(span{name: name, parent: parent, id: id, start: t0, end: time.Now(), status: sw.status, bytes: r.ContentLength})
	})
}

// spanTransport is the router's Config.HTTPClient transport: each backend
// hop becomes a child span of the router span whose id the request
// context carries.
type spanTransport struct {
	l    *spanLog
	next http.RoundTripper
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := r.Context().Value(spanKey{}).(int64)
	if !ok || !strings.HasSuffix(r.URL.Path, "/push") {
		return t.next.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	t0 := time.Now()
	resp, err := t.next.RoundTrip(r)
	status := 0
	if err == nil {
		status = resp.StatusCode
	}
	t.l.add(span{name: "router.hop", parent: "router", id: id, start: t0, end: time.Now(), status: status})
	return resp, err
}

// listen serves h on a loopback port until the returned stop is called.
func listen(h http.Handler) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }() // Serve returns ErrServerClosed on stop
	return "http://" + l.Addr().String(), func() { srv.Close(); <-done }, nil
}

// ladderReplay pushes the schedule through an in-process router in front
// of two serve.Server backends, recording spans at every boundary.
func ladderReplay(ctx context.Context, out io.Writer, env *runEnv, w workload, in *inputs, sched []replayPush, m map[string]metric, ops *opCounter) error {
	l := &spanLog{}
	var hubs []*hub.Hub
	var cps []*serve.Checkpointer
	var stops []func()
	defer func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		for _, h := range hubs {
			h.Close()
		}
	}()
	ckptRoot := filepath.Join(env.work, "ladder-ckpt")
	var specs []router.BackendSpec
	for i := 0; i < 2; i++ {
		h, err := hub.New(hub.Config{Workers: w.serve.workers})
		if err != nil {
			return err
		}
		hubs = append(hubs, h)
		srv, err := serve.New(h, in.kinds)
		if err != nil {
			return err
		}
		h.SetMetrics(srv.EnableMetrics(nil))
		name := fmt.Sprintf("b%d", i+1)
		cp, err := serve.NewCheckpointer(srv, filepath.Join(ckptRoot, name), time.Hour)
		if err != nil {
			return err
		}
		cps = append(cps, cp)
		url, stop, err := listen(traced(l, "serve", "router.hop", srv))
		if err != nil {
			return err
		}
		stops = append(stops, stop)
		specs = append(specs, router.BackendSpec{Name: name, URL: url})
	}
	rt, err := router.New(router.Config{
		Backends:       specs,
		CheckpointRoot: ckptRoot,
		HTTPClient:     &http.Client{Transport: &spanTransport{l: l, next: &http.Transport{MaxIdleConnsPerHost: 4}}},
		Logf:           func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Stop()
	front, stop, err := listen(traced(l, "router", "", rt))
	if err != nil {
		return err
	}
	stops = append(stops, stop)

	if err := register(ctx, front, in, ops); err != nil {
		return err
	}
	c := newConn(front)
	defer c.hc.CloseIdleConnections()
	for _, s := range in.streams {
		for _, b := range warmSeries(s) {
			if _, err := c.do(ctx, http.MethodPost, "/v1/streams/"+s.id+"/push", render(b, len(b))[0].json, false); err != nil {
				return err
			}
		}
	}
	for _, h := range hubs {
		h.Flush()
	}
	l.reset() // spans from here on are the schedule's

	// Settle times of probe detections, from hub.Watch subscribers on
	// whichever backend owns each probe, against SSE arrival at the
	// router's /watch.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	settled := make([]map[int]time.Time, len(in.probes))
	var wg sync.WaitGroup
	for i, s := range in.probes {
		settled[i] = map[int]time.Time{}
		for _, h := range hubs {
			sub, err := h.Watch(s.id, 0)
			if err != nil {
				continue // not this backend's stream
			}
			wg.Add(1)
			go func(i int, sub *hub.Watch) {
				defer wg.Done()
				defer sub.Close()
				for idx := sub.Cursor(); ; {
					dets, final, err := sub.Next(wctx)
					now := time.Now()
					for range dets {
						settled[i][idx] = now
						idx++
					}
					if final || err != nil {
						return
					}
				}
			}(i, sub)
		}
	}
	var watchers []*watcher
	for _, s := range in.probes {
		wt, err := startWatch(wctx, front, s, ops)
		if err != nil {
			return err
		}
		watchers = append(watchers, wt)
	}

	syncStop := make(chan struct{})
	var syncMs []float64
	var syncWG sync.WaitGroup
	syncWG.Add(1)
	go func() {
		defer syncWG.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-syncStop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			for _, cp := range cps {
				if err := cp.Sync(); err != nil {
					return
				}
			}
			syncMs = append(syncMs, ms(time.Since(t0)))
		}
	}()

	start := time.Now()
	var pts int64
	for _, p := range sched {
		sleepUntil(start.Add(p.off))
		if _, err := c.do(ctx, http.MethodPost, "/v1/streams/"+p.s.id+"/push", p.b.json, false); err != nil {
			close(syncStop)
			syncWG.Wait()
			return err
		}
		pts += int64(len(p.b.pts))
	}
	for _, h := range hubs {
		h.Flush()
	}
	close(syncStop)
	syncWG.Wait()
	var ckptBytes, ckptFiles int64
	_ = filepath.WalkDir(ckptRoot, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".ckpt") {
			if fi, err := d.Info(); err == nil {
				ckptBytes += fi.Size()
				ckptFiles++
			}
		}
		return nil
	})
	for _, s := range in.probes {
		if _, err := c.do(ctx, http.MethodDelete, "/v1/streams/"+s.id, nil, false); err != nil {
			return err
		}
	}
	for _, wt := range watchers {
		if err := wt.wait(20 * time.Second); err != nil {
			return err
		}
	}
	cancel()
	wg.Wait()
	var settleToRecv []float64
	for i, wt := range watchers {
		for _, a := range wt.got {
			if at, ok := settled[i][a.idx]; ok {
				settleToRecv = append(settleToRecv, ms(a.at.Sub(at)))
			}
		}
	}

	// Self time: a router span minus the backend hops it covers.
	type agg struct {
		router, hop time.Duration
		hops        int
		status      int
	}
	byID := map[int64]*agg{}
	var servePushUs []float64
	var serveBytes int64
	serveErrs, unavailable := map[int]int{}, 0
	for _, sp := range l.spans {
		a := byID[sp.id]
		if a == nil {
			a = &agg{}
			byID[sp.id] = a
		}
		switch sp.name {
		case "router":
			a.router = sp.end.Sub(sp.start)
			a.status = sp.status
			if sp.status == http.StatusServiceUnavailable {
				unavailable++
			}
		case "router.hop":
			a.hop += sp.end.Sub(sp.start)
			a.hops++
		case "serve":
			servePushUs = append(servePushUs, us(sp.end.Sub(sp.start)))
			serveBytes += sp.bytes
			if sp.status >= 400 {
				serveErrs[sp.status]++
			}
		}
	}
	var selfUs, hopUs []float64
	retries := 0
	for _, a := range byID {
		if a.router == 0 || a.hops == 0 {
			continue
		}
		selfUs = append(selfUs, us(a.router-a.hop))
		hopUs = append(hopUs, us(a.hop)/float64(a.hops))
		retries += a.hops - 1
	}
	m["router.self_us_per_push"] = metric{median(selfUs), "us"}
	m["router.backend_rt_us_p50"] = metric{median(hopUs), "us"}
	m["router.retries"] = metric{float64(retries), "count"}
	m["router.unavailable"] = metric{float64(unavailable), "count"}
	m["serve.push_us_p50"] = metric{median(servePushUs), "us"}
	m["serve.body_bytes_per_pt"] = metric{float64(serveBytes) / float64(max(pts, 1)), "bytes"}
	errs := 0
	for _, n := range serveErrs {
		errs += n
	}
	m["serve.errors"] = metric{float64(errs), "count"}
	m["checkpoint.sync_ms_p50"] = metric{median(syncMs), "ms"}
	m["checkpoint.bytes_per_stream"] = metric{float64(ckptBytes) / float64(max(ckptFiles, 1)), "bytes"}
	m["checkpoint.generations"] = metric{float64(len(syncMs)), "count"}
	stw := summarize(settleToRecv)
	m["watch.settle_to_recv_ms_p50"] = metric{stw.P50, "ms"}
	fmt.Fprintf(out, "  ladder replay: %d pushes through router and serve, router self p50 %.1f us, hop p50 %.1f us, serve p50 %.1f us, serve errors by status %v, %d checkpoint generations p50 %.2f ms, %d settled probe frames, settle-to-receive p50 %.3f ms\n",
		len(selfUs), median(selfUs), median(hopUs), median(servePushUs), serveErrs, len(syncMs), median(syncMs), stw.N, stw.P50)
	return nil
}
