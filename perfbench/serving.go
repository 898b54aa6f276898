package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"etsc/internal/hub"
	"etsc/internal/stream"
)

// opCounter counts operations the run attempted and the ones that failed
// or were refused: registrations, pushes, watch subscribes and deletes.
type opCounter struct{ attempted, failed atomic.Int64 }

func (o *opCounter) done(ok bool) {
	o.attempted.Add(1)
	if !ok {
		o.failed.Add(1)
	}
}

// conn is one client connection of the generator.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // only the status matters here
	resp.Body.Close()
}

// do sends one request and returns the response body when keep is set.
func (c *conn) do(ctx context.Context, method, path string, body []byte, keep bool) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if !keep || resp.StatusCode/100 != 2 {
		drain(resp)
		if resp.StatusCode/100 != 2 {
			return nil, fmt.Errorf("%s %s: http %d", method, path, resp.StatusCode)
		}
		return nil, nil
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// totals is the part of /v1/stats the benchmark reads; a router serves the
// fleet-wide sum in the same fields.
type totals struct {
	Points        int64 `json:"Points"`
	QueuedBatches int   `json:"QueuedBatches"`
}

func (c *conn) stats(ctx context.Context) (totals, error) {
	raw, err := c.do(ctx, http.MethodGet, "/v1/stats", nil, true)
	if err != nil {
		return totals{}, err
	}
	var t totals
	return t, json.Unmarshal(raw, &t)
}

// topology is one setup's running server processes.
type topology struct {
	front string  // base URL the generator talks to
	procs []*proc // router first when present, then backends
}

func (t *topology) stop(graceful bool) error {
	var first error
	for _, p := range t.procs {
		if err := p.stop(graceful); err != nil && first == nil {
			first = err
		}
	}
	t.procs = nil
	return first
}

// usage sums CPU and peak RSS over the server-side processes.
func (t *topology) usage() ([]procUsage, procUsage, error) {
	var sum procUsage
	per := make([]procUsage, len(t.procs))
	for i, p := range t.procs {
		u, err := p.usage()
		if err != nil {
			return nil, sum, err
		}
		per[i] = u
		sum.CPU += u.CPU
		sum.HWM += u.HWM
	}
	return per, sum, nil
}

// startTopology launches the shape's servers with their documented flags:
// one etsc-serve, or etsc-router over two backends.
func startTopology(ctx context.Context, env *runEnv, sh servingShape, seed int64, dir string) (*topology, error) {
	t := &topology{}
	fail := func(err error) (*topology, error) {
		t.stop(false)
		return nil, err
	}
	nBackends := 1
	if sh.router {
		nBackends = 2
	}
	var backends []string
	for i := 0; i < nBackends; i++ {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		name := fmt.Sprintf("b%d", i+1)
		args := []string{"-addr", addr, "-workers", strconv.Itoa(sh.workers), "-seed", strconv.FormatInt(seed, 10)}
		p, err := launch("etsc-serve["+name+"]", "http://"+addr, filepath.Join(dir, name+".log"), env.bin("etsc-serve"), args...)
		if err != nil {
			return fail(err)
		}
		t.procs = append(t.procs, p)
		backends = append(backends, name+"=http://"+addr)
	}
	t.front = t.procs[0].url
	if sh.router {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		args := []string{"-addr", addr, "-backends", strings.Join(backends, ",")}
		p, err := launch("etsc-router", "http://"+addr, filepath.Join(dir, "router.log"), env.bin("etsc-router"), args...)
		if err != nil {
			return fail(err)
		}
		t.procs = append([]*proc{p}, t.procs...)
		t.front = p.url
	}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for _, p := range t.procs {
		if err := waitHealthy(ctx, hc, p.url); err != nil {
			return fail(err)
		}
	}
	return t, nil
}

// servingResult is what one serving part measured.
type servingResult struct {
	setupS []float64

	// The timed span's windows, in time order, alternating nominal and
	// saturate. quietNominal and quietSaturate index each phase's quiet
	// windows, those the host stole the least CPU time from (quietest).
	windows                     []windowResult
	quietNominal, quietSaturate []int

	// Totals over every nominal window.
	nominalSecs float64
	nominalPts  int64           // points the servers applied
	loadgenCPU  time.Duration   // the generator's own CPU
	perCPU      []time.Duration // per server process
	pushMs      []float64       // each push from its due time; misses +Inf
	lateMs      []float64       // how late the generator sent each push
	backlog     []float64       // QueuedBatches sampled through nominal
	scrapeMs    []float64
	backlogMax  int

	detects []detectSample // probe detections settled by a nominal push
	frames  int
	reconn  int

	procNames []string
	procUse   []procUsage // whole-run CPU and peak RSS per process
	serverUse procUsage   // summed over server-side processes
	loadgen   procUsage

	checked int // transcripts compared with hub.Reference
}

// windowResult is one timed window.
type windowResult struct {
	phase  phase
	start  time.Time
	secs   float64
	steal  float64       // share of the machine's CPU ticks the host stole
	pts    int64         // points the servers applied
	cpu    time.Duration // server-side CPU
	pushMs []float64     // nominal: each push from its due time
}

// runServing drives one workload's serving part end to end and checks
// every transcript.
func runServing(ctx context.Context, env *runEnv, w workload, in *inputs, seconds float64, ops *opCounter) (*servingResult, error) {
	sh := w.serve
	res := &servingResult{}
	var topo *topology
	for i := 0; i < sh.setups; i++ {
		dir := filepath.Join(env.work, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		t, err := startTopology(ctx, env, sh, env.seed, dir)
		if err != nil {
			return nil, err
		}
		if err := register(ctx, t.front, in, ops); err != nil {
			t.stop(false)
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if i < sh.setups-1 {
			t.stop(false)
			continue
		}
		topo = t
	}
	defer topo.stop(false) // no-op once the graceful stop below has reaped them

	a, b := newConn(topo.front), newConn(topo.front)
	defer a.hc.CloseIdleConnections()
	defer b.hc.CloseIdleConnections()
	watchers := make([]*watcher, 0, len(in.probes))
	for _, s := range in.probes {
		wt, err := startWatch(ctx, topo.front, s, ops)
		if err != nil {
			return nil, err
		}
		watchers = append(watchers, wt)
	}

	// Warm-up: every stream past its first full pattern window, applied.
	if err := pushAll(ctx, []*conn{a, b}, in.streams, func(s *streamInput, c *conn) error {
		for k := range s.warm {
			bd := &s.warm[k]
			if _, err := c.do(ctx, http.MethodPost, "/v1/streams/"+s.id+"/push", bd.json, false); err != nil {
				ops.done(false)
				return err
			}
			ops.done(true)
			s.record(bd, time.Now(), phaseWarm, -1)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if _, err := settle(ctx, a, in); err != nil {
		return nil, err
	}

	if err := measure(ctx, res, topo, a, b, in, sh, seconds, ops); err != nil {
		return nil, err
	}
	if _, err := settle(ctx, a, in); err != nil {
		return nil, err
	}
	per, sum, err := topo.usage()
	if err != nil {
		return nil, err
	}
	res.procUse, res.serverUse = per, sum
	for _, p := range topo.procs {
		res.procNames = append(res.procNames, p.name)
	}
	if res.loadgen, err = readUsage("self"); err != nil {
		return nil, err
	}

	finals, err := deleteAll(ctx, a, b, in, ops)
	if err != nil {
		return nil, err
	}
	for _, wt := range watchers {
		if err := wt.wait(20 * time.Second); err != nil {
			return nil, err
		}
	}
	if err := topo.stop(true); err != nil {
		return nil, err
	}
	if err := checkTranscripts(in, finals, watchers, env.workers); err != nil {
		return nil, err
	}
	res.checked = len(finals)
	for _, wt := range watchers {
		res.frames += len(wt.got)
		res.reconn += wt.reconnects
		res.detects = append(res.detects, detectLatencies(wt)...)
	}
	return res, nil
}

// register creates every stream, split over both connections.
func register(ctx context.Context, front string, in *inputs, ops *opCounter) error {
	a, b := newConn(front), newConn(front)
	defer a.hc.CloseIdleConnections()
	defer b.hc.CloseIdleConnections()
	return pushAll(ctx, []*conn{a, b}, in.streams, func(s *streamInput, c *conn) error {
		_, err := c.do(ctx, http.MethodPost, "/v1/streams", s.create, false)
		ops.done(err == nil)
		if err != nil {
			return fmt.Errorf("register %s: %w", s.id, err)
		}
		return nil
	})
}

// pushAll runs fn over the streams, one goroutine per connection; stream i
// goes to connection i mod len(conns), so each stream has a single sender.
func pushAll(ctx context.Context, conns []*conn, streams []*streamInput, fn func(*streamInput, *conn) error) error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for g := range conns {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(streams) && ctx.Err() == nil; i += len(conns) {
				if err := fn(streams[i], conns[g]); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// settle waits until the servers have applied every accepted point.
func settle(ctx context.Context, c *conn, in *inputs) (totals, error) {
	var want int64
	for _, s := range in.streams {
		want += int64(s.pos)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		t, err := c.stats(ctx)
		if err != nil {
			return t, err
		}
		if t.Points == want && t.QueuedBatches == 0 {
			return t, nil
		}
		if t.Points > want || time.Now().After(deadline) {
			return t, fmt.Errorf("servers applied %d points, %d accepted", t.Points, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pushCycle sends stream s's next measured-phase body and records it.
func pushCycle(ctx context.Context, c *conn, s *streamInput, due time.Time, ph phase, win int, ops *opCounter) error {
	bd := &s.cycle[s.next%len(s.cycle)]
	_, err := c.do(ctx, http.MethodPost, "/v1/streams/"+s.id+"/push", bd.json, false)
	ops.done(err == nil)
	if err != nil {
		return err
	}
	s.next++
	s.record(bd, due, ph, win)
	return nil
}

// The timed span is cut into one-second windows that alternate nominal
// and saturate, so both phases sample all of it. The host of a virtual
// machine may take CPU time away in spells of ten seconds to minutes
// (steal, in /proc/stat), and a spell stretches every latency and cuts
// throughput.
// So each window records its steal share, and the serving metrics pool
// each phase's quiet windows (quietest).
const (
	window     = time.Second
	statsEvery = 250 * time.Millisecond
)

// measure runs the timed span: seconds split into windows that alternate
// nominal, an open loop at the shape's fixed rates on connection a, and
// saturate, a closed loop over both connections.
func measure(ctx context.Context, res *servingResult, topo *topology, a, b *conn, in *inputs, sh servingShape, seconds float64, ops *opCounter) error {
	n := max(1, int(seconds/2/window.Seconds()))
	lanes := []*lane{{streams: in.background, every: time.Duration(float64(time.Second) * float64(sh.batch) / sh.nominalRate)}}
	if sh.probeBatch > 0 {
		lanes = append(lanes, &lane{streams: in.probes, every: time.Duration(float64(time.Second) * float64(sh.probeBatch) / sh.probeRate)})
	}
	// Stream i stays on saturate connection i mod 2, so each stream has
	// one sender.
	var sat saturator
	for i, s := range in.background {
		sat.mine[i%2] = append(sat.mine[i%2], s)
	}
	var nomSteal, satSteal []float64
	for i := 0; i < 2*n; i++ {
		var wr windowResult
		var err error
		if i%2 == 0 {
			wr, err = nominalWindow(ctx, res, topo, a, b, lanes, i, ops)
			nomSteal = append(nomSteal, wr.steal)
		} else {
			wr, err = sat.window(ctx, res, a, b, i, ops)
			satSteal = append(satSteal, wr.steal)
		}
		if err != nil {
			return err
		}
		res.windows = append(res.windows, wr)
	}
	// Window i of a phase is res.windows[2i] (nominal) or [2i+1].
	for _, i := range quietest(nomSteal) {
		res.quietNominal = append(res.quietNominal, 2*i)
	}
	for _, i := range quietest(satSteal) {
		res.quietSaturate = append(res.quietSaturate, 2*i+1)
	}
	return nil
}

// lane is one open-loop push schedule: within a window, push k is due at
// the window's start + k*every, round-robin over streams.
type lane struct {
	streams []*streamInput
	every   time.Duration
	n       int // pushes sent in all windows, for the round-robin
	k       int // pushes sent in this window
}

func (l *lane) due(start time.Time) time.Time { return start.Add(time.Duration(l.k) * l.every) }

// nominalWindow runs one open-loop window: connection a pushes at the
// lanes' rates, each push timed from when it was due; connection b
// carries the operator reads, a /v1/stats poll and a /metrics scrape.
func nominalWindow(ctx context.Context, res *servingResult, topo *topology, a, b *conn, lanes []*lane, idx int, ops *opCounter) (windowResult, error) {
	wr := windowResult{phase: phaseNominal}
	t0, err := a.stats(ctx)
	if err != nil {
		return wr, err
	}
	per0, sum0, err := topo.usage()
	if err != nil {
		return wr, err
	}
	self0, err := readUsage("self")
	if err != nil {
		return wr, err
	}
	steal, err := startSteal()
	if err != nil {
		return wr, err
	}
	stop := make(chan struct{})
	opDone := make(chan error, 1)
	go func() { opDone <- operatorReads(ctx, b, res, stop) }()

	wr.start = time.Now()
	end := wr.start.Add(window)
	prevDone := wr.start
	for _, l := range lanes {
		l.k = 0
	}
	for {
		// The next push is the earliest due one over the lanes.
		l := lanes[0]
		for _, o := range lanes[1:] {
			if o.due(wr.start).Before(l.due(wr.start)) {
				l = o
			}
		}
		due := l.due(wr.start)
		if !due.Before(end) {
			break
		}
		sleepUntil(due)
		sent := time.Now()
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		res.lateMs = append(res.lateMs, ms(sent.Sub(ready)))
		s := l.streams[l.n%len(l.streams)]
		l.n++
		l.k++
		err := pushCycle(ctx, a, s, due, phaseNominal, idx, ops)
		prevDone = time.Now()
		lat := miss
		if err == nil {
			lat = ms(prevDone.Sub(due))
		}
		wr.pushMs = append(wr.pushMs, lat)
	}
	close(stop)
	if err := <-opDone; err != nil {
		return wr, err
	}
	if wr.steal, err = steal.share(); err != nil {
		return wr, err
	}
	t1, err := a.stats(ctx)
	if err != nil {
		return wr, err
	}
	wr.secs = time.Since(wr.start).Seconds()
	per1, sum1, err := topo.usage()
	if err != nil {
		return wr, err
	}
	self1, err := readUsage("self")
	if err != nil {
		return wr, err
	}
	wr.pts, wr.cpu = t1.Points-t0.Points, sum1.CPU-sum0.CPU
	res.nominalSecs += wr.secs
	res.nominalPts += wr.pts
	res.loadgenCPU += self1.CPU - self0.CPU
	if res.perCPU == nil {
		res.perCPU = make([]time.Duration, len(per1))
	}
	for i := range per1 {
		res.perCPU[i] += per1[i].CPU - per0[i].CPU
	}
	res.pushMs = append(res.pushMs, wr.pushMs...)
	return wr, nil
}

// operatorReads polls /v1/stats every statsEvery and scrapes /metrics
// every fourth poll until stop closes.
func operatorReads(ctx context.Context, c *conn, res *servingResult, stop chan struct{}) error {
	tick := time.NewTicker(statsEvery)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		t, err := c.stats(ctx)
		if err != nil {
			return err
		}
		res.backlog = append(res.backlog, float64(t.QueuedBatches))
		res.backlogMax = max(res.backlogMax, t.QueuedBatches)
		if n%4 == 3 {
			t0 := time.Now()
			if _, err := c.do(ctx, http.MethodGet, "/metrics", nil, true); err != nil {
				return err
			}
			res.scrapeMs = append(res.scrapeMs, ms(time.Since(t0)))
		}
	}
}

// saturator runs the closed-loop windows: one sending goroutine per
// connection, each over its own streams, resuming its round-robin where
// the last window left it.
type saturator struct {
	mine [2][]*streamInput
	next [2]int
}

func (st *saturator) window(ctx context.Context, res *servingResult, a, b *conn, idx int, ops *opCounter) (windowResult, error) {
	wr := windowResult{phase: phaseSaturate}
	t0, err := a.stats(ctx)
	if err != nil {
		return wr, err
	}
	steal, err := startSteal()
	if err != nil {
		return wr, err
	}
	wr.start = time.Now()
	end := wr.start.Add(window)
	conns := [2]*conn{a, b}
	var errs [2]error
	var wg sync.WaitGroup
	for g := range conns {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(end) {
				s := st.mine[g][st.next[g]%len(st.mine[g])]
				st.next[g]++
				if err := pushCycle(ctx, conns[g], s, time.Now(), phaseSaturate, idx, ops); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return wr, fmt.Errorf("saturate: %w", err)
		}
	}
	if wr.steal, err = steal.share(); err != nil {
		return wr, err
	}
	t1, err := a.stats(ctx)
	if err != nil {
		return wr, err
	}
	wr.secs = time.Since(wr.start).Seconds()
	wr.pts = t1.Points - t0.Points
	res.backlogMax = max(res.backlogMax, t1.QueuedBatches)
	return wr, nil
}

// deleteAll deletes every stream and returns each final transcript.
func deleteAll(ctx context.Context, a, b *conn, in *inputs, ops *opCounter) (map[string][]stream.Detection, error) {
	var mu sync.Mutex
	finals := map[string][]stream.Detection{}
	err := pushAll(ctx, []*conn{a, b}, in.streams, func(s *streamInput, c *conn) error {
		raw, err := c.do(ctx, http.MethodDelete, "/v1/streams/"+s.id, nil, true)
		ops.done(err == nil)
		if err != nil {
			return fmt.Errorf("delete %s: %w", s.id, err)
		}
		var rep hub.StreamReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return fmt.Errorf("delete %s: %w", s.id, err)
		}
		mu.Lock()
		finals[s.id] = rep.Detections
		mu.Unlock()
		return nil
	})
	return finals, err
}

// checkTranscripts compares every final transcript and every watched feed
// with hub.Reference over exactly the points the stream was sent.
func checkTranscripts(in *inputs, finals map[string][]stream.Detection, watchers []*watcher, workers int) error {
	errs := make([]error, len(in.streams))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.streams) {
					return
				}
				s := in.streams[i]
				want, err := hub.Reference(s.cfg, s.series())
				if err != nil {
					errs[i] = err
					continue
				}
				if !sameDetections(finals[s.id], want) {
					errs[i] = fmt.Errorf("stream %s: final transcript (%d detections) differs from hub.Reference (%d)", s.id, len(finals[s.id]), len(want))
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, wt := range watchers {
		got := make([]stream.Detection, len(wt.got))
		for i, a := range wt.got {
			got[i] = a.det
		}
		if !sameDetections(got, finals[wt.s.id]) {
			return fmt.Errorf("stream %s: /watch delivered %d detections, final transcript has %d or differs", wt.s.id, len(got), len(finals[wt.s.id]))
		}
	}
	return nil
}

func sameDetections(a, b []stream.Detection) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// detectSample is one watched detection's alarm delay, its stream's kind
// and the window of the push that settled it.
type detectSample struct {
	kind string
	win  int
	ms   float64
}

// detectLatencies measures each watched detection from the due time of
// the push carrying its settle point to the frame's arrival. Only
// detections settled by a nominal push count: those pushes have due times
// independent of the servers' speed.
func detectLatencies(wt *watcher) []detectSample {
	dets := make([]stream.Detection, len(wt.got))
	for i, a := range wt.got {
		dets[i] = a.det
	}
	var out []detectSample
	for i, p := range settlePoints(dets, wt.s.verified, wt.s.window) {
		rec, ok := wt.s.carrier(p)
		if !ok || rec.phase != phaseNominal {
			continue
		}
		out = append(out, detectSample{wt.s.kind, rec.win, ms(wt.got[i].at.Sub(rec.due))})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sleepUntil blocks until t. time.Sleep can wake a millisecond late on a
// virtual machine, which would put the generator's own timer error into
// every open-loop latency; nanosleep(2) on the calling thread wakes within
// tens of microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps the rest
	}
}
