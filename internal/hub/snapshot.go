package hub

import (
	"fmt"
	"sync"

	"etsc/internal/snap"
	"etsc/internal/stream"
)

// Stream snapshot/restore: a hub stream's complete durable state — monitor
// position and the last window−1 points, suppressor debounce, detection
// transcript with verification cursors and the settled watch boundary, and
// the raw sample tail pending verifications still need — exports as one
// self-validating snap frame and restores into another Hub (another
// process, a post-crash reboot). Open candidate sessions are not written:
// restore rebuilds them by replaying the kept points (stream.Online).
//
// What is NOT in the snapshot: the trained classifier and the verifier.
// Those are configuration, not stream state — the restoring side supplies
// them through StreamConfig (in the serving layer, re-resolved from the
// recorded model spec through the registry), and the snapshot carries just
// enough of the resolved config (window length, stride/step, suppression
// radius, verifier presence) to reject a mismatched supply.
//
// The snapshot's Position is the replay watermark: every point before it
// is inside the snapshot, every point at or after it must be re-pushed
// (PushAt) to continue the stream. Restore seeds the ingest watermark to
// it, so replaying an overlap — or the same batch twice — deduplicates
// instead of corrupting the transcript.

// streamStateKind tags hub stream snapshots; streamStateVersion is the
// payload schema version this build writes (bump on any layout change
// below). Version 1 frames also carried each open candidate's session
// state after the monitor's points; Restore still reads them, leaving
// those records unread.
const (
	streamStateKind    = "etsc-stream-state"
	streamStateVersion = 2
)

// frameEngine is the engine int every stream frame carries. The field once
// named the candidate sessions' engine (0 the lazy frontier, 1 the eager
// bank); one engine is left, so frames write 1 — a binary that still has
// both engines reopens them on eager banks — and Restore accepts 0 or 1,
// rejecting anything else.
const frameEngine = 1

// Export serializes a stream's live state without disturbing it: drains
// are paused (the active one yields within a batch), the pipeline state is
// read, and the stream resumes. Batches queued but not yet applied are NOT
// in the snapshot — they are past the snapshot's Position, in replay
// territory — so a snapshot taken under load is simply a slightly earlier
// consistent cut. The stream keeps accepting pushes throughout.
func (h *Hub) Export(id string) ([]byte, error) {
	h.mu.Lock()
	s, ok := h.streams[id]
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pause++
	for s.running {
		s.cond.Wait()
	}
	data := s.exportLocked()
	s.pause--
	if s.pause == 0 && !s.running && len(s.queue) > 0 {
		s.running = true
		h.pool.Submit(func() { h.drain(s) })
	}
	return data, nil
}

// exportLocked renders the stream's state as a framed snapshot. Caller
// holds s.mu with no drain running (paused or drained).
func (s *hubStream) exportLocked() []byte {
	var w snap.Writer
	w.String(s.id)
	pos := s.online.Pos()
	w.Int(pos)
	w.Int(s.window)
	w.Int(s.online.Stride())
	w.Int(s.online.Step())
	w.Int(frameEngine)
	w.Int(s.supp.Radius)
	w.Bool(s.verif != nil)
	w.Int64(s.stats.Batches)
	w.Int64(s.stats.Points)
	w.Int64(s.stats.DroppedBatches)
	w.Int64(s.stats.DroppedPoints)
	w.Int64(s.stats.ShedBatches)
	w.Int64(s.stats.ShedPoints)
	w.Int(s.stats.Recanted)
	w.Int(len(s.dets))
	for _, d := range s.dets {
		w.Int(d.Start)
		w.Int(d.DecisionAt)
		w.Int(d.Label)
		w.Float(d.Earliness)
		w.Bool(d.Recanted)
	}
	w.Ints(s.pend)
	w.Int(s.settled)
	w.Int(s.tailAt)
	w.Floats(s.tail)
	s.supp.SnapshotTo(&w)
	// The monitor last: version 1 frames put their candidate sessions after
	// it, which is what lets Restore leave them unread.
	s.online.SnapshotTo(&w)
	return snap.Encode(streamStateKind, streamStateVersion, w.Bytes())
}

// SnapshotInfo validates a snapshot's frame and returns its stream ID and
// position watermark without restoring it — what the serving layer needs
// to route a restore and what replay drivers need to resume pushing.
func SnapshotInfo(data []byte) (id string, position int, err error) {
	_, id, position, _, err = openFrame(data)
	return id, position, err
}

// openFrame decodes a stream frame, checks its kind and version, and reads
// the stream ID and position every version starts with; the returned
// reader stands just past them.
func openFrame(data []byte) (version uint16, id string, pos int, r *snap.Reader, err error) {
	kind, version, payload, err := snap.Decode(data)
	if err != nil {
		return 0, "", 0, nil, err
	}
	if kind != streamStateKind {
		return 0, "", 0, nil, fmt.Errorf("%w: kind %q is not a stream snapshot", snap.ErrCorrupt, kind)
	}
	if version < 1 || version > streamStateVersion {
		return 0, "", 0, nil, fmt.Errorf("%w: stream snapshot version %d (this build reads 1 to %d)",
			snap.ErrVersion, version, streamStateVersion)
	}
	r = snap.NewReader(payload)
	id = r.String()
	pos = r.Int()
	if err := r.Err(); err != nil {
		return 0, "", 0, nil, err
	}
	if pos < 0 {
		return 0, "", 0, nil, fmt.Errorf("%w: negative position %d", snap.ErrCorrupt, pos)
	}
	return version, id, pos, r, nil
}

// Restore attaches a stream rebuilt from a snapshot of either version. sc
// supplies what the snapshot deliberately omits — the trained classifier
// and the verifier — and must match the recorded resolved config: same
// full-window length and same verifier presence, or ErrBadSnapshot.
// Stride, step, and suppression radius come from the snapshot itself
// (sc's values for them are ignored), so the restored pipeline is the one
// that was exported.
//
// Returns the stream ID on success. Corrupt or truncated snapshots fail
// with snap sentinel errors and never panic; nothing is attached on
// failure.
func (h *Hub) Restore(data []byte, sc StreamConfig) (string, error) {
	version, id, pos, r, err := openFrame(data)
	if err != nil {
		return "", err
	}
	if sc.Classifier == nil {
		return "", fmt.Errorf("%w: restore needs a classifier", ErrBadSnapshot)
	}

	window := r.Int()
	stride := r.Int()
	step := r.Int()
	engine := r.Int()
	suppress := r.Int()
	hasVerif := r.Bool()
	var st StreamStats
	st.Batches = r.Int64()
	st.Points = r.Int64()
	st.DroppedBatches = r.Int64()
	st.DroppedPoints = r.Int64()
	st.ShedBatches = r.Int64()
	st.ShedPoints = r.Int64()
	st.Recanted = r.Int()
	nd := r.Int()
	if err := r.Err(); err != nil {
		return "", err
	}
	if window < 1 || stride < 1 || step < 1 || suppress < 0 {
		return "", fmt.Errorf("%w: stream geometry (pos %d, window %d, stride %d, step %d, suppress %d)",
			snap.ErrCorrupt, pos, window, stride, step, suppress)
	}
	if engine != 0 && engine != frameEngine {
		return "", fmt.Errorf("%w: snapshot engine %d (want 0 or %d)", ErrBadSnapshot, engine, frameEngine)
	}
	if window != sc.Classifier.FullLength() {
		return "", fmt.Errorf("%w: snapshot window %d, classifier full length %d",
			ErrBadSnapshot, window, sc.Classifier.FullLength())
	}
	if hasVerif != (sc.Verifier != nil) {
		return "", fmt.Errorf("%w: snapshot verifier presence %v, config %v",
			ErrBadSnapshot, hasVerif, sc.Verifier != nil)
	}
	if nd < 0 || nd > r.Remaining() {
		return "", fmt.Errorf("%w: %d detections in a %d-byte remainder", snap.ErrCorrupt, nd, r.Remaining())
	}
	dets := make([]stream.Detection, 0, nd)
	recanted := 0
	for i := 0; i < nd; i++ {
		d := stream.Detection{
			Start:      r.Int(),
			DecisionAt: r.Int(),
			Label:      r.Int(),
			Earliness:  r.Float(),
			Recanted:   r.Bool(),
		}
		if r.Err() != nil {
			return "", r.Err()
		}
		if d.Start < 0 || d.DecisionAt < d.Start || d.DecisionAt >= pos {
			return "", fmt.Errorf("%w: detection %d at [%d, %d] outside stream position %d",
				snap.ErrCorrupt, i, d.Start, d.DecisionAt, pos)
		}
		if d.Recanted {
			recanted++
		}
		dets = append(dets, d)
	}
	if recanted != st.Recanted {
		return "", fmt.Errorf("%w: %d recanted detections, stats say %d", snap.ErrCorrupt, recanted, st.Recanted)
	}
	pend := r.Ints()
	settled := r.Int()
	tailAt := r.Int()
	tail := r.Floats()
	if err := r.Err(); err != nil {
		return "", err
	}
	prev := -1
	for i, di := range pend {
		if di <= prev || di >= len(dets) {
			return "", fmt.Errorf("%w: pending index %d (entry %d) over %d detections", snap.ErrCorrupt, di, i, len(dets))
		}
		prev = di
	}
	if hasVerif {
		if tailAt < 0 || tailAt+len(tail) != pos {
			return "", fmt.Errorf("%w: tail [%d, %d) does not end at position %d",
				snap.ErrCorrupt, tailAt, tailAt+len(tail), pos)
		}
		for _, di := range pend {
			if dets[di].Start < tailAt {
				return "", fmt.Errorf("%w: pending detection at %d starts before the retained tail %d",
					snap.ErrCorrupt, dets[di].Start, tailAt)
			}
		}
	} else if len(tail) != 0 || len(pend) != 0 {
		return "", fmt.Errorf("%w: verifier state without a verifier", snap.ErrCorrupt)
	}

	supp := stream.NewSuppressor(suppress)
	if err := supp.RestoreFrom(r); err != nil {
		return "", err
	}
	online, err := stream.NewOnline(sc.Classifier, stride, step)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if err := online.RestoreFrom(r); err != nil {
		return "", err
	}
	if version == streamStateVersion {
		if err := r.Done(); err != nil {
			return "", err
		}
	}
	if online.Pos() != pos {
		return "", fmt.Errorf("%w: monitor position %d, stream position %d", snap.ErrCorrupt, online.Pos(), pos)
	}
	bound := (&hubStream{dets: dets, pend: pend}).settledBoundLocked(nil)
	if settled != bound {
		return "", fmt.Errorf("%w: settled boundary %d, pending cursors imply %d", snap.ErrCorrupt, settled, bound)
	}

	st.Position = pos
	st.ActiveCandidates = online.ActiveCandidates()
	st.Detections = len(dets)
	st.PendingVerify = len(pend)
	s := &hubStream{
		id:      id,
		online:  online,
		supp:    supp,
		verif:   sc.Verifier,
		window:  window,
		queue:   make([][]float64, 0, h.depth),
		free:    make([][]float64, 0, h.depth+1),
		notify:  make(chan struct{}),
		ingest:  pos,
		stats:   st,
		dets:    dets,
		pend:    pend,
		settled: settled,
		tail:    tail,
		tailAt:  tailAt,
	}
	s.cond = sync.NewCond(&s.mu)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return "", ErrClosed
	}
	if _, ok := h.streams[id]; ok {
		return "", fmt.Errorf("%w: %q", ErrDuplicate, id)
	}
	h.streams[id] = s
	return id, nil
}
