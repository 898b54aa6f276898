// Package hub multiplexes many independent monitored streams through one
// shared worker pool — the production shape of the paper's deployment
// argument. A single stream's monitor loop was made incremental and
// parallel in internal/stream; the hub owns N such pipelines (one
// stream.Online, suppressor, and verifier per stream), ingests batched
// points via Push(streamID, points), and fans per-stream drain work across
// a par.Pool with bounded per-stream queues and explicit backpressure.
//
// Determinism contract: each stream is processed by at most one worker at
// a time and its batches are applied in arrival order, so for any worker
// count — including 1 — a stream's detection transcript is byte-identical
// to driving stream.Online directly over the concatenated batches (plus
// the same suppression and full-window verification), which
// TestHubMatchesOnline and the golden test assert. Parallelism changes
// wall-clock time only. Backpressure is never silent: a full queue
// blocks the pusher (Block), rejects the batch with ErrDropped (Drop), or
// admits it by evicting the stream's oldest queued batch (Shed); dropped
// and shed batches are counted in the stream's stats.
package hub

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"etsc/internal/etsc"
	"etsc/internal/metrics"
	"etsc/internal/par"
	"etsc/internal/stream"
)

// Policy says what Push does when a stream's queue is full.
type Policy int

const (
	// Block makes Push wait until the drain worker frees queue space.
	Block Policy = iota
	// Drop makes Push reject the batch with ErrDropped and count it.
	Drop
	// Shed makes Push accept the new batch by evicting the stream's OLDEST
	// queued batch — per-stream admission control. A slow stream sheds its
	// own backlog (counted in ShedBatches/ShedPoints, never silent) while
	// every other stream and the pusher itself stay unaffected: ingest
	// never blocks and never rejects, so one degraded consumer cannot 429
	// the whole fleet. Shedding loses mid-stream data by design — the
	// degradation is explicit, bounded (queue depth), and observable in
	// Stats and /metrics.
	Shed
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy name as rendered by String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop":
		return Drop, nil
	case "shed":
		return Shed, nil
	default:
		return 0, fmt.Errorf("hub: unknown policy %q (want block, drop, or shed)", s)
	}
}

// Errors surfaced by the hub. ErrDropped is the Drop policy doing its job:
// the caller learns, on every rejected batch, that it outran the hub.
var (
	ErrClosed        = errors.New("hub: closed")
	ErrUnknownStream = errors.New("hub: unknown stream")
	ErrDuplicate     = errors.New("hub: stream already attached")
	ErrDropped       = errors.New("hub: batch dropped, stream queue full")
	// ErrGap rejects a positioned push (PushAt) whose offset lies beyond the
	// stream's accepted-point watermark: admitting it would silently skip
	// the missing points. Replays at or behind the watermark are fine — the
	// overlap is deduplicated, which is what makes crash-recovery replay
	// idempotent.
	ErrGap = errors.New("hub: positioned push beyond the stream's ingest watermark")
	// ErrBadSnapshot rejects a Restore whose snapshot decodes but does not
	// match the supplied stream config (wrong classifier window, verifier
	// presence, or duplicate/foreign stream ID).
	ErrBadSnapshot = errors.New("hub: snapshot does not match the stream config")
)

// Config sizes the hub.
type Config struct {
	// Workers bounds the shared drain pool (0 = one per CPU).
	Workers int
	// QueueDepth is the per-stream bound on queued batches (0 = 16).
	QueueDepth int
	// Policy is the full-queue behaviour; the zero value blocks.
	Policy Policy
}

// StreamConfig is one stream's pipeline: the same knobs stream.Monitor
// takes, applied online. Suppress debounces same-label alarms with
// stream.Suppressor; Verifier, when non-nil, re-checks each surviving
// detection against its completed window (the paper's "recant" step) —
// windows still incomplete at Detach/Close are recanted, exactly as
// stream.Verify treats windows that run past the end of a batch stream.
type StreamConfig struct {
	Classifier etsc.EarlyClassifier
	Stride     int // candidate spacing (0 = default 4)
	Step       int // prefix growth per decision opportunity (0 = default 4)
	Suppress   int // same-label debounce radius (0 = off)
	Verifier   stream.Verifier
	// Engine is ignored: candidate sessions run on the one engine.
	//
	// Deprecated: leave it unset.
	Engine etsc.EngineMode
}

// StreamStats is one stream's observable state.
type StreamStats struct {
	Position         int // samples applied to the pipeline so far
	ActiveCandidates int // live candidate windows
	QueuedBatches    int // batches waiting in the stream's queue
	Batches          int64
	Points           int64
	DroppedBatches   int64
	DroppedPoints    int64
	ShedBatches      int64 // oldest-first queue evictions under the Shed policy
	ShedPoints       int64
	Detections       int
	Recanted         int // detections whose completed (or truncated) window failed verification
	PendingVerify    int // detections whose full window has not arrived yet
	Watchers         int // live Watch subscriptions on the stream
}

// Totals aggregates StreamStats across the hub; GET /v1/stats serves it
// as is. QueuedBatches is the instantaneous backlog (batches accepted but
// not yet drained), the hub's saturation signal.
type Totals struct {
	Streams        int
	Batches        int64
	Points         int64
	QueuedBatches  int
	DroppedBatches int64
	DroppedPoints  int64
	ShedBatches    int64
	ShedPoints     int64
	Detections     int
	Recanted       int
	Watchers       int
}

// StreamReport is the final state Detach and Close return for a stream.
type StreamReport struct {
	ID         string
	Stats      StreamStats
	Detections []stream.Detection
}

// hubMetrics is the hub's hot-path instrument set — atomic counters and a
// histogram resolved once at SetMetrics, so Push pays atomic ops only (no
// map lookups, no allocation) and pays nothing at all when metrics are off.
type hubMetrics struct {
	push    *metrics.Histogram
	batches *metrics.Counter
	points  *metrics.Counter
	dropped *metrics.Counter
	shedB   *metrics.Counter
	shedP   *metrics.Counter
}

// Hub owns the streams and the shared pool.
type Hub struct {
	depth  int
	policy Policy
	pool   *par.Pool

	mu      sync.Mutex
	met     *hubMetrics
	streams map[string]*hubStream
	closed  bool
	// Close is idempotent: the first call does the work, every later or
	// concurrent call waits on closeDone and returns the same reports (or
	// re-panics with the same pipeline panic the first call hit).
	closeDone    chan struct{}
	closeReports []StreamReport
	closePanic   any
}

type hubStream struct {
	id string

	// Pipeline state, touched only by the single active drain task (the
	// running flag serializes drains per stream).
	online *stream.Online
	supp   *stream.Suppressor
	verif  stream.Verifier
	window int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    [][]float64
	free     [][]float64 // drained batch buffers for Push to reuse
	running  bool
	detached bool
	// pause holds drains off the stream while a snapshot export reads its
	// pipeline state: the active drain yields within one batch, no new drain
	// starts, and the last exporter out resubmits the drain if work queued
	// up meanwhile. Pushes keep being accepted throughout.
	pause int
	// ingest is the accepted-point watermark: total points admitted to the
	// queue (applied or not). Positioned pushes (PushAt) dedup against it,
	// so replaying a prefix of already-accepted points is a no-op instead of
	// double-feeding the pipeline.
	ingest  int
	stats   StreamStats
	dets    []stream.Detection
	pend    []int // indices into dets awaiting full-window verification
	settled int   // prefix of dets whose Recanted flags are committed-final
	tail    []float64
	tailAt  int // stream position of tail[0]

	// Watch machinery: notify is closed-and-replaced whenever the settled
	// prefix advances or the stream finalizes (a broadcast every blocked
	// Watch.Next observes without polling); final marks the transcript
	// complete — no detection will ever be appended or re-flagged again.
	notify   chan struct{}
	final    bool
	watchers int
}

// wakeWatchersLocked broadcasts a state change to every blocked watcher by
// closing the current notify channel and installing a fresh one. Caller
// holds s.mu and calls this only when settled actually advanced or final
// flipped — never on the per-batch fast path — so idle streams allocate
// nothing.
func (s *hubStream) wakeWatchersLocked() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// settledBoundLocked computes the settled prefix length: every detection
// before it is final — not awaiting its window (pend) and not in a taken
// verification batch whose flags have yet to be committed (inflight).
// Caller holds s.mu.
func (s *hubStream) settledBoundLocked(inflight []verifyJob) int {
	bound := len(s.dets)
	for _, di := range s.pend {
		if di < bound {
			bound = di
		}
	}
	for _, j := range inflight {
		if j.di < bound {
			bound = j.di
		}
	}
	return bound
}

// New builds a hub. The zero Config is usable: NumCPU workers, queue depth
// 16, Block policy.
func New(cfg Config) (*Hub, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("hub: Workers must be >= 0 (0 = NumCPU), got %d", cfg.Workers)
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("hub: QueueDepth must be >= 0 (0 = default), got %d", cfg.QueueDepth)
	}
	if cfg.Policy != Block && cfg.Policy != Drop && cfg.Policy != Shed {
		return nil, fmt.Errorf("hub: unknown policy %d", int(cfg.Policy))
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = 16
	}
	return &Hub{
		depth:   depth,
		policy:  cfg.Policy,
		pool:    par.NewPool(cfg.Workers),
		streams: map[string]*hubStream{},
	}, nil
}

// Attach registers a new stream under id.
func (h *Hub) Attach(id string, sc StreamConfig) error {
	if sc.Suppress < 0 {
		return fmt.Errorf("hub: Suppress must be >= 0 (0 = off), got %d", sc.Suppress)
	}
	online, err := stream.NewOnline(sc.Classifier, sc.Stride, sc.Step)
	if err != nil {
		return err
	}
	s := &hubStream{
		id:     id,
		online: online,
		supp:   stream.NewSuppressor(sc.Suppress),
		verif:  sc.Verifier,
		window: sc.Classifier.FullLength(),
		// Queue and freelist capacities cover the stream's whole batch
		// population (at most depth queued plus one draining), so the
		// steady-state Push path never grows either slice.
		queue:  make([][]float64, 0, h.depth),
		free:   make([][]float64, 0, h.depth+1),
		notify: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	if _, ok := h.streams[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicate, id)
	}
	h.streams[id] = s
	return nil
}

// Push ingests one batch of points for a stream. The batch is copied — the
// caller may reuse its buffer — into a buffer recycled from the stream's
// drained batches, so with steadily sized batches the Push path is
// allocation-free in steady state (the alloc regression test pins this).
// With a full queue, Block policy waits, Drop policy returns ErrDropped
// (and counts the drop in the stream's stats), and Shed policy evicts the
// stream's own oldest queued batch to admit the new one — the push always
// succeeds, the loss is counted in ShedBatches/ShedPoints. Detections
// surface asynchronously via Detections/Snapshot after the drain worker
// applies the batch; Flush waits for that.
func (h *Hub) Push(id string, points []float64) error {
	return h.push(id, -1, points)
}

// PushAt is Push with an explicit stream offset: at is the stream index of
// points[0] in accepted-point coordinates (StreamStats.Position plus any
// still-queued points — the ingest watermark). Points at or before the
// watermark are deduplicated, so replaying a checkpoint's tail after a
// crash — including pushing the same batch twice — feeds each point to the
// pipeline exactly once; a batch starting beyond the watermark fails with
// ErrGap. Under the Shed policy evicted batches leave holes in the
// coordinate space, so positioned replay is only exact for Block and Drop.
func (h *Hub) PushAt(id string, at int, points []float64) error {
	if at < 0 {
		return fmt.Errorf("%w: negative position %d", ErrGap, at)
	}
	return h.push(id, at, points)
}

// push is the shared admission path: at < 0 is an unpositioned append
// (Push), at >= 0 a positioned, deduplicated write (PushAt).
func (h *Hub) push(id string, at int, points []float64) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrClosed
	}
	s, ok := h.streams[id]
	met := h.met
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	if len(points) == 0 {
		return nil
	}
	var start time.Time
	if met != nil {
		start = time.Now()
	}

	s.mu.Lock()
	for len(s.queue) >= h.depth && !s.detached {
		switch h.policy {
		case Drop:
			s.stats.DroppedBatches++
			s.stats.DroppedPoints += int64(len(points))
			s.mu.Unlock()
			if met != nil {
				met.dropped.Inc()
			}
			return fmt.Errorf("%w: %q", ErrDropped, id)
		case Shed:
			// Evict the oldest queued batch: the slow stream pays for its
			// own backlog, the pusher is admitted unconditionally. The
			// evicted buffer goes back on the freelist so the shed path
			// stays allocation-free too.
			old := s.queue[0]
			copy(s.queue, s.queue[1:])
			s.queue = s.queue[:len(s.queue)-1]
			s.stats.ShedBatches++
			s.stats.ShedPoints += int64(len(old))
			if met != nil {
				met.shedB.Inc()
				met.shedP.Add(float64(len(old)))
			}
			if len(s.free) < cap(s.free) {
				s.free = append(s.free, old[:0])
			}
		default: // Block
			s.cond.Wait()
		}
	}
	if s.detached {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	if at >= 0 {
		// Positioned write: clip the prefix already at or behind the
		// watermark (idempotent replay), reject anything past it (a gap).
		if at > s.ingest {
			s.mu.Unlock()
			return fmt.Errorf("%w: %q at %d, watermark %d", ErrGap, id, at, s.ingest)
		}
		if skip := s.ingest - at; skip >= len(points) {
			s.mu.Unlock()
			return nil // wholly behind the watermark: already accepted
		} else if skip > 0 {
			points = points[skip:]
		}
	}
	var batch []float64
	if k := len(s.free); k > 0 {
		batch = s.free[k-1][:0]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
	}
	batch = append(batch, points...)
	s.queue = append(s.queue, batch)
	s.ingest += len(batch)
	s.stats.QueuedBatches = len(s.queue)
	if !s.running && s.pause == 0 {
		s.running = true
		h.pool.Submit(func() { h.drain(s) })
	}
	s.mu.Unlock()
	if met != nil {
		met.batches.Inc()
		met.points.Add(float64(len(points)))
		met.push.Observe(time.Since(start).Seconds())
	}
	return nil
}

// drain applies a stream's queued batches in order. At most one drain per
// stream runs at a time (the running flag), which is the whole determinism
// argument: per-stream work is serial, only distinct streams overlap.
func (h *Hub) drain(s *hubStream) {
	defer func() {
		if r := recover(); r != nil {
			// A panicking classifier/verifier must not strand the stream:
			// discard the remaining queue (counted as drops, never silent)
			// and mark the stream idle so Detach/Close/Flush and blocked
			// pushers terminate. The panic is re-raised into the pool,
			// which rethrows it at Close.
			s.mu.Lock()
			for _, b := range s.queue {
				s.stats.DroppedBatches++
				s.stats.DroppedPoints += int64(len(b))
			}
			s.queue = nil
			s.stats.QueuedBatches = 0
			// Fail-stop: the pipeline state is suspect mid-panic, so the
			// stream stops accepting pushes rather than running on it.
			// Watchers terminate too — the settled prefix can never grow
			// on a sealed stream, so holding them open would hang them.
			s.detached = true
			s.running = false
			s.final = true
			s.wakeWatchersLocked()
			s.cond.Broadcast()
			s.mu.Unlock()
			panic(r)
		}
	}()
	var done []float64 // previous batch's buffer, recycled under the lock
	for {
		s.mu.Lock()
		if done != nil {
			// applyBatch copied what it keeps (the tail), so the buffer is
			// free for the next Push to fill. The freelist is bounded by
			// the batch population (depth queued + one draining).
			s.free = append(s.free, done)
			done = nil
		}
		if s.pause > 0 {
			// A snapshot export wants the pipeline state quiescent: yield
			// between batches. The exporter resubmits the drain when it
			// releases the pause and work remains queued.
			s.running = false
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		if len(s.queue) == 0 {
			s.running = false
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		batch := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]
		s.stats.QueuedBatches = len(s.queue)
		s.cond.Broadcast() // free space for blocked pushers
		s.mu.Unlock()

		if kill := testDrainKill.Load(); kill != nil && (*kill)(s.id) {
			// Fault injection (tests only): vanish mid-batch like a killed
			// process — the dequeued batch is lost, running stays true so
			// the stream freezes exactly as a SIGKILL would leave it. Only
			// the crash-recovery battery installs this hook.
			return
		}

		s.applyBatch(batch)
		done = batch
	}
}

// testDrainKill, when non-nil, is consulted with the stream ID before each
// batch is applied; returning true makes the drain worker vanish without
// cleanup, simulating a process kill mid-drain. Only the crash-recovery
// battery installs it (an atomic pointer so installing and clearing it
// cannot race with drains already in flight).
var testDrainKill atomic.Pointer[func(string) bool]

// applyBatch runs one batch through the stream's pipeline. The classifier
// and the verifier both run without the lock (the verifier's NN scan is
// O(train × window) per detection — holding the lock through a detection
// burst would stall Snapshot/Stats readers); only the bookkeeping commits
// hold it, via defers, so a panicking classifier or verifier unwinds with
// the lock released and drain's recovery can still seal the stream.
func (s *hubStream) applyBatch(batch []float64) {
	// Pipeline work happens without holding the lock; the stream's
	// Online, Suppressor, and window are drain-owned. The whole queued
	// batch decodes in one candidate-major pass, so every live session
	// reaches the blocked extend kernel with multi-point chunks instead of
	// once per point.
	dets := s.online.PushBatch(batch)
	kept := dets[:0]
	for _, d := range dets {
		if s.supp.Keep(d) {
			kept = append(kept, d)
		}
	}

	var jobs []verifyJob
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.stats.Batches++
		s.stats.Points += int64(len(batch))
		s.stats.Position = s.online.Pos()
		s.stats.ActiveCandidates = s.online.ActiveCandidates()
		base := len(s.dets)
		s.dets = append(s.dets, kept...)
		if s.verif != nil {
			s.tail = append(s.tail, batch...)
			for i := range kept {
				s.pend = append(s.pend, base+i)
			}
			jobs = s.takeResolvableLocked(false)
		}
		s.stats.Detections = len(s.dets)
		s.stats.PendingVerify = len(s.pend)
		// Taken jobs commit their flags after the lock is released, so
		// the settled prefix must not advance past them yet.
		before := s.settled
		s.settled = s.settledBoundLocked(jobs)
		if s.settled != before {
			s.wakeWatchersLocked()
		}
	}()
	s.runVerifications(jobs)
}

// verifyJob is one detection whose recant check is ready to run: its
// completed window (copied, so the tail can be trimmed immediately), or a
// nil window meaning the pattern never completed and the detection recants
// without a verifier call.
type verifyJob struct {
	di     int
	label  int
	window []float64
}

// takeResolvableLocked removes from the pending list every detection whose
// full window has arrived — or, with final set, every detection at all
// (windows that will never complete recant, exactly stream.Verify's rule
// for windows that run past the end of the stream) — returning them as
// jobs, and trims the tail buffer to what is still needed.
func (s *hubStream) takeResolvableLocked(final bool) []verifyJob {
	pos := s.stats.Position
	var jobs []verifyJob
	remain := s.pend[:0]
	for _, di := range s.pend {
		d := &s.dets[di]
		end := d.Start + s.window
		switch {
		case end <= pos:
			w := append([]float64(nil), s.tail[d.Start-s.tailAt:end-s.tailAt]...)
			jobs = append(jobs, verifyJob{di: di, label: d.Label, window: w})
		case final:
			jobs = append(jobs, verifyJob{di: di})
		default:
			remain = append(remain, di)
		}
	}
	s.pend = remain
	// A live candidate window can still fire for any start in
	// (pos-window, pos), so the tail must always retain the last window of
	// samples, plus everything back to the earliest pending detection.
	keepFrom := pos - s.window
	if keepFrom < 0 {
		keepFrom = 0
	}
	for _, di := range s.pend {
		if st := s.dets[di].Start; st < keepFrom {
			keepFrom = st
		}
	}
	if keepFrom > s.tailAt {
		s.tail = s.tail[keepFrom-s.tailAt:]
		s.tailAt = keepFrom
	}
	s.stats.PendingVerify = len(s.pend)
	return jobs
}

// runVerifications executes taken jobs outside the lock and commits the
// recant flags. Only the stream's single active drain (or finalize, which
// runs after the last drain) calls this, so the detections the jobs index
// are stable.
func (s *hubStream) runVerifications(jobs []verifyJob) {
	if len(jobs) == 0 {
		return
	}
	results := make([]bool, len(jobs))
	for i, j := range jobs {
		results[i] = j.window == nil || !s.verif.Verify(j.window, j.label)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, j := range jobs {
		s.dets[j.di].Recanted = results[i]
		if results[i] {
			s.stats.Recanted++
		}
	}
	before := s.settled
	s.settled = s.settledBoundLocked(nil)
	if s.settled != before {
		s.wakeWatchersLocked()
	}
}

// waitDrainedLocked blocks until the stream's queue is empty and no drain
// task is running. Caller holds s.mu.
func (s *hubStream) waitDrainedLocked() {
	for s.running || len(s.queue) > 0 {
		s.cond.Wait()
	}
}

// Flush blocks until the hub is quiescent: every queued batch applied and
// no drain running. With producers still pushing concurrently it waits for
// their batches too, so it is a tool for tests, benchmarks, and shutdown
// sequencing — not for read paths that must stay responsive under load
// (those should read Snapshot/Stats directly; both are safe at any time).
func (h *Hub) Flush() {
	for _, s := range h.snapshotStreams() {
		s.mu.Lock()
		s.waitDrainedLocked()
		s.mu.Unlock()
	}
}

// Detach drains a stream's queue, finalizes pending verifications
// (incomplete windows recant), removes the stream, and returns its final
// report. Pushers blocked on the stream's queue are released with
// ErrUnknownStream.
func (h *Hub) Detach(id string) (StreamReport, error) {
	h.mu.Lock()
	s, ok := h.streams[id]
	if ok {
		delete(h.streams, id)
	}
	h.mu.Unlock()
	if !ok {
		return StreamReport{}, fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	return h.finalize(s), nil
}

// finalize seals a stream already removed from the map: new pushes are
// rejected and blocked pushers released first, then the already-accepted
// queue is allowed to drain (every batch Push accepted is applied), and
// still-pending detections resolve — completed windows verify, incomplete
// ones recant.
func (h *Hub) finalize(s *hubStream) StreamReport {
	s.mu.Lock()
	s.detached = true
	s.cond.Broadcast()
	s.waitDrainedLocked()
	var jobs []verifyJob
	if s.verif != nil {
		jobs = s.takeResolvableLocked(true)
	}
	s.mu.Unlock()
	// No drain can run anymore (queue empty, pushes rejected), so the
	// verifier work races with nothing.
	s.runVerifications(jobs)

	s.mu.Lock()
	s.tail = nil
	// Every pending detection was just resolved, so settled == len(dets):
	// watchers drain the full transcript and then observe final — the
	// clean-termination contract behind DELETE-while-watching.
	s.final = true
	s.wakeWatchersLocked()
	rep := StreamReport{
		ID:         s.id,
		Stats:      s.stats,
		Detections: append([]stream.Detection(nil), s.dets...),
	}
	s.mu.Unlock()
	return rep
}

// Close drains and finalizes every stream, stops the worker pool, and
// returns the final reports sorted by stream ID. Push and Attach fail with
// ErrClosed afterwards. Close is idempotent and safe to race with both
// in-flight Pushes and other Close calls: exactly one caller performs the
// shutdown, every other call blocks until it completes and then returns
// the same reports with a nil error, so "Close returned" always means
// "every accepted batch was applied and the pool is stopped".
func (h *Hub) Close() ([]StreamReport, error) {
	h.mu.Lock()
	if h.closed {
		done := h.closeDone
		h.mu.Unlock()
		<-done
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.closePanic != nil {
			panic(h.closePanic)
		}
		return h.closeReports, nil
	}
	h.closed = true
	done := make(chan struct{})
	h.closeDone = done
	// Waiters are released even if a pipeline panic unwinds the shutdown
	// below (pool.Close rethrows the first task panic): a hang would turn
	// one fail-stopped stream into a deadlocked process. The panic is
	// recorded so waiters observe it too instead of a clean nil result.
	defer func() {
		if r := recover(); r != nil {
			h.mu.Lock()
			h.closePanic = r
			h.mu.Unlock()
			close(done)
			panic(r)
		}
		close(done)
	}()
	streams := make([]*hubStream, 0, len(h.streams))
	for _, s := range h.streams {
		streams = append(streams, s)
	}
	h.streams = map[string]*hubStream{}
	h.mu.Unlock()

	reports := make([]StreamReport, 0, len(streams))
	for _, s := range streams {
		reports = append(reports, h.finalize(s))
	}
	sort.Slice(reports, func(a, b int) bool { return reports[a].ID < reports[b].ID })
	h.mu.Lock()
	h.closeReports = reports
	h.mu.Unlock()
	h.pool.Close()
	return reports, nil
}

// snapshotStreams copies the live stream set.
func (h *Hub) snapshotStreams() []*hubStream {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*hubStream, 0, len(h.streams))
	for _, s := range h.streams {
		out = append(out, s)
	}
	return out
}

// Snapshot returns per-stream stats for every attached stream.
func (h *Hub) Snapshot() map[string]StreamStats {
	out := map[string]StreamStats{}
	for _, s := range h.snapshotStreams() {
		s.mu.Lock()
		out[s.id] = s.stats
		s.mu.Unlock()
	}
	return out
}

// Stats aggregates the hub-wide totals.
func (h *Hub) Stats() Totals {
	var t Totals
	for _, st := range h.Snapshot() {
		t.Streams++
		t.Batches += st.Batches
		t.Points += st.Points
		t.QueuedBatches += st.QueuedBatches
		t.DroppedBatches += st.DroppedBatches
		t.DroppedPoints += st.DroppedPoints
		t.ShedBatches += st.ShedBatches
		t.ShedPoints += st.ShedPoints
		t.Detections += st.Detections
		t.Recanted += st.Recanted
		t.Watchers += st.Watchers
	}
	return t
}

// SetMetrics registers the hub's hot-path instruments on reg and turns on
// Push instrumentation: batch/point/drop/shed counters and a push-latency
// histogram. Instruments are atomic, so the zero-allocation Push contract
// holds with metrics enabled; with SetMetrics never called, Push pays
// nothing. Call before traffic — it is safe to call later, but batches
// pushed first are not retroactively counted. Scrape-time per-stream and
// per-kind families live in the serving layer (which joins Snapshot with
// stream metadata); the hub registers only what the hot path touches.
func (h *Hub) SetMetrics(reg *metrics.Registry) {
	m := &hubMetrics{
		push:    reg.Histogram("etsc_hub_push_seconds", "Push call latency in seconds (enqueue only; drains are asynchronous).", metrics.DefaultLatencyBuckets),
		batches: reg.Counter("etsc_hub_batches_total", "Batches accepted by Push."),
		points:  reg.Counter("etsc_hub_points_total", "Points accepted by Push."),
		dropped: reg.Counter("etsc_hub_dropped_batches_total", "Batches rejected with ErrDropped under the Drop policy."),
		shedB:   reg.Counter("etsc_hub_shed_batches_total", "Queued batches evicted under the Shed policy."),
		shedP:   reg.Counter("etsc_hub_shed_points_total", "Points discarded by Shed-policy evictions."),
	}
	h.mu.Lock()
	h.met = m
	h.mu.Unlock()
}

// Detections returns a copy of a stream's detection transcript so far.
// Recanted flags settle once each detection's full window has been applied
// (or at Detach/Close); PendingVerify in the stream's stats counts the
// unsettled ones.
func (h *Hub) Detections(id string) ([]stream.Detection, error) {
	dets, _, err := h.DetectionsSettled(id)
	return dets, err
}

// DetectionsSettled is Detections plus the length of the transcript's
// settled prefix: every detection before it has its final Recanted flag
// and can never change again, while later entries still await full-window
// verification. Cursor-style consumers (the /v1 detections endpoint) page
// only the settled prefix so each detection is observed exactly once, in
// its final state. Streams without a verifier settle immediately, so
// settled == len(dets) for them.
func (h *Hub) DetectionsSettled(id string) (dets []stream.Detection, settled int, err error) {
	h.mu.Lock()
	s, ok := h.streams[id]
	h.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]stream.Detection(nil), s.dets...), s.settled, nil
}

// Reference is the serial oracle the hub's determinism contract points at:
// the transcript a stream's config produces when the whole series is
// driven through a standalone stream.Online, the same suppressor, and a
// final stream.Verify pass. Hub output per stream must be byte-identical
// to Reference over the concatenation of its pushed batches.
func Reference(sc StreamConfig, series []float64) ([]stream.Detection, error) {
	if sc.Suppress < 0 {
		return nil, fmt.Errorf("hub: Suppress must be >= 0 (0 = off), got %d", sc.Suppress)
	}
	o, err := stream.NewOnline(sc.Classifier, sc.Stride, sc.Step)
	if err != nil {
		return nil, err
	}
	dets := stream.NewSuppressor(sc.Suppress).Filter(o.PushAll(series))
	if sc.Verifier != nil {
		stream.Verify(dets, series, sc.Classifier.FullLength(), sc.Verifier)
	}
	return dets, nil
}
