package stream

import (
	"fmt"
	"sort"

	"etsc/internal/etsc"
	"etsc/internal/snap"
)

// Online snapshot/restore: the monitor's live scratch — stream position,
// sample buffer, and every open candidate window with its session state —
// serializes through a snap.Writer and rebuilds into a freshly constructed
// monitor over the same classifier and configuration. The classifier
// itself is not serialized; the owning layer records the model spec and
// re-trains (or re-attaches) it before calling RestoreFrom.

// Classifier returns the classifier this monitor drives.
func (o *Online) Classifier() etsc.EarlyClassifier { return o.classifier }

// Stride returns the configured candidate-window stride.
func (o *Online) Stride() int { return o.stride }

// Step returns the configured decision-opportunity step.
func (o *Online) Step() int { return o.step }

// SnapshotTo writes the monitor's live state: position, buffer, and every
// open candidate (window start, decision cursor, and classifier session
// scratch).
func (o *Online) SnapshotTo(w *snap.Writer) error {
	w.Int(o.pos)
	w.Int(o.bufStart)
	w.Floats(o.buf)
	w.Int(len(o.candidates))
	for _, c := range o.candidates {
		w.Int(c.start)
		w.Int(c.nextLen)
		w.Int(c.seen)
		if err := etsc.SnapshotSessionState(c.sess, w); err != nil {
			return fmt.Errorf("stream: candidate at %d: %w", c.start, err)
		}
	}
	return nil
}

// RestoreFrom loads state written by SnapshotTo into a freshly constructed
// monitor (NewOnline with the same classifier, stride, and step) that has
// not consumed a point. Structurally invalid state —
// a buffer that cannot belong to this configuration, candidate cursors
// outside their windows — fails with an error wrapping snap.ErrCorrupt and
// never panics; the monitor is not usable after a failed restore.
func (o *Online) RestoreFrom(r *snap.Reader) error {
	if o.pos != 0 || len(o.candidates) != 0 {
		return fmt.Errorf("%w: restore into a monitor that has already consumed points", snap.ErrCorrupt)
	}
	pos := r.Int()
	bufStart := r.Int()
	buf := r.Floats()
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if pos < 0 || bufStart < 0 || bufStart > pos {
		return fmt.Errorf("%w: position %d / buffer start %d", snap.ErrCorrupt, pos, bufStart)
	}
	if bufStart+len(buf) != pos {
		return fmt.Errorf("%w: buffer [%d, %d) does not end at position %d", snap.ErrCorrupt, bufStart, bufStart+len(buf), pos)
	}
	if len(buf) > cap(o.buf) {
		return fmt.Errorf("%w: buffer of %d points exceeds this configuration's %d capacity", snap.ErrCorrupt, len(buf), cap(o.buf))
	}
	if n < 0 || n > len(buf)/o.stride+2 {
		return fmt.Errorf("%w: %d candidates over a %d-point buffer at stride %d", snap.ErrCorrupt, n, len(buf), o.stride)
	}
	o.pos = pos
	o.bufStart = bufStart
	o.buf = append(o.buf[:0], buf...)
	prevStart := -1
	for i := 0; i < n; i++ {
		start, nextLen, seen := r.Int(), r.Int(), r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if start < bufStart || start > pos || start%o.stride != 0 {
			return fmt.Errorf("%w: candidate %d start %d outside buffer [%d, %d] or off stride %d",
				snap.ErrCorrupt, i, start, bufStart, pos, o.stride)
		}
		if start <= prevStart {
			return fmt.Errorf("%w: candidate %d start %d not after previous %d", snap.ErrCorrupt, i, start, prevStart)
		}
		prevStart = start
		if seen < 0 || seen > pos-start || seen > o.window {
			return fmt.Errorf("%w: candidate %d has seen %d of a %d-point window with %d available",
				snap.ErrCorrupt, i, seen, o.window, pos-start)
		}
		if nextLen < o.step || nextLen < seen || nextLen > o.window+o.step || nextLen%o.step != 0 {
			return fmt.Errorf("%w: candidate %d decision cursor %d (seen %d, step %d)",
				snap.ErrCorrupt, i, nextLen, seen, o.step)
		}
		sess := etsc.OpenSession(o.classifier)
		if err := etsc.RestoreSessionState(sess, r); err != nil {
			return fmt.Errorf("stream: candidate %d: %w", i, err)
		}
		o.candidates = append(o.candidates, &onlineCandidate{
			start: start, nextLen: nextLen, seen: seen, sess: sess,
		})
	}
	return r.Err()
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
