package stream

import (
	"fmt"
	"sort"

	"etsc/internal/snap"
)

// Online snapshot/restore: the monitor's live state is its position and
// the last window−1 points. Every open candidate starts inside that span —
// a candidate whose window has seen window points is closed — and was fed
// the span in the same step-sized Extend chunks a fresh monitor feeds it,
// so RestoreFrom rebuilds every open session exactly by pushing the span
// through a monitor positioned at its start. The classifier is not
// serialized; the owning layer records the model spec and re-trains (or
// re-attaches) it before calling RestoreFrom. Any classifier restores this
// way, since no session state is written.

// maxPosition bounds a restored position: the largest integer a JSON
// number carries exactly, far below where the monitor's index arithmetic
// could wrap.
const maxPosition = 1 << 53

// Stride returns the configured candidate-window stride.
func (o *Online) Stride() int { return o.stride }

// Step returns the configured decision-opportunity step.
func (o *Online) Step() int { return o.step }

// replaySpan is how many of the points before pos a snapshot keeps: the
// last window−1, or all of them early in the stream.
func (o *Online) replaySpan(pos int) int { return max(0, min(pos, o.window-1)) }

// SnapshotTo writes the monitor's live state: its position, the stream
// index the kept points start at, and the last window−1 points.
func (o *Online) SnapshotTo(w *snap.Writer) {
	span := o.buf[len(o.buf)-o.replaySpan(o.pos):]
	w.Int(o.pos)
	w.Int(o.pos - len(span))
	w.Floats(span)
}

// RestoreFrom loads state written by SnapshotTo into a freshly constructed
// monitor (NewOnline with the same stride and step, and a classifier of the
// same window length) that has not consumed a point, and replays the kept
// points through it. The detections the replay re-derives fired before the
// snapshot and are discarded. Points before the last window−1 (writers
// that predate replay kept more) are skipped. A position outside
// [0, 2^53], or kept points that do not end at the position or do not
// cover the last window−1, fail with an error wrapping snap.ErrCorrupt and
// never panic; the monitor is not usable after a failed restore.
func (o *Online) RestoreFrom(r *snap.Reader) error {
	if o.pos != 0 || len(o.candidates) != 0 {
		return fmt.Errorf("%w: restore into a monitor that has already consumed points", snap.ErrCorrupt)
	}
	pos := r.Int()
	bufStart := r.Int()
	buf := r.Floats()
	if err := r.Err(); err != nil {
		return err
	}
	if pos < 0 || pos > maxPosition {
		return fmt.Errorf("%w: position %d outside [0, %d]", snap.ErrCorrupt, pos, maxPosition)
	}
	span := o.replaySpan(pos)
	if bufStart < 0 || bufStart > pos || pos-bufStart != len(buf) || len(buf) < span {
		return fmt.Errorf("%w: buffer of %d points from %d does not hold the %d points before position %d",
			snap.ErrCorrupt, len(buf), bufStart, span, pos)
	}
	o.pos = pos - span
	o.bufStart = o.pos
	o.PushBatch(buf[len(buf)-span:])
	return nil
}

// SnapshotTo writes the suppressor's debounce state: for each label, the
// DecisionAt of the last kept detection, in sorted label order so the
// snapshot bytes are deterministic.
func (s *Suppressor) SnapshotTo(w *snap.Writer) {
	labels := make([]int, 0, len(s.lastAt))
	for lab := range s.lastAt {
		labels = append(labels, lab)
	}
	sort.Ints(labels)
	w.Int(len(labels))
	for _, lab := range labels {
		w.Int(lab)
		w.Int(s.lastAt[lab])
	}
}

// RestoreFrom loads state written by SnapshotTo. The radius is
// configuration, not state; it must already be set.
func (s *Suppressor) RestoreFrom(r *snap.Reader) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 || n > r.Remaining() {
		return fmt.Errorf("%w: %d suppressor entries", snap.ErrCorrupt, n)
	}
	if s.lastAt == nil {
		s.lastAt = make(map[int]int, n)
	}
	for i := 0; i < n; i++ {
		lab, at := r.Int(), r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		s.lastAt[lab] = at
	}
	return nil
}
