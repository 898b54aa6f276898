package etsc

import (
	"fmt"

	"etsc/internal/snap"
	"etsc/internal/ts"
)

// Session snapshot/restore: every native incremental session (and the pure
// adapter) can export its live scratch through a snap.Writer and be
// rebuilt into a fresh session opened from the same trained classifier.
// Only per-stream scratch is serialized — bank positions and accumulators,
// stream buffers, streak counters, cached decisions. The trained model
// itself is NOT in the snapshot; it restores through the spec/registry path
// and the restored session re-attaches to it.
//
// Restored state is exact: distance banks carry their accumulator vectors
// verbatim (IEEE bits). Frames written by the retired lazy frontier carry
// the raw query prefix instead; the bank's strictly left-to-right per-row
// fold rebuilds bit-identical accumulators when that prefix is replayed,
// regardless of how the points originally arrived in chunks. That is what
// lets the crash-recovery battery demand byte-identical transcripts rather
// than merely equivalent ones.
//
// Layout: one tag byte naming the session type, done flag, latched
// decision, then type-specific fields. Versioning lives on the enclosing
// frame (the owning layer's payload kind/version); a session schema change
// is an online-state version bump.

// Session type tags. One byte each, never reused: 'S' belonged to the
// retired whole-prefix Session adapter and stays reserved.
const (
	sessTagECTS        = 'C'
	sessTagProbThresh  = 'P'
	sessTagFixedPrefix = 'F'
	sessTagTEASER      = 'T'
	sessTagEDSC        = 'D'
	sessTagRelClass    = 'R'
	sessTagPureAdapter = 'U'
)

// Bank flavor tags inside ECTS/ProbThreshold snapshots.
const (
	bankFlavorEager = 'E' // exact (n, d2) accumulator vector
	bankFlavorLazy  = 'L' // raw query prefix, rebuilt by replay (decode only)
)

// SnapshotSessionState writes a session's live scratch to w. The session
// must be one produced by OpenSession (native or adapter); any other
// IncrementalSession implementation is an error.
func SnapshotSessionState(sess IncrementalSession, w *snap.Writer) error {
	switch s := sess.(type) {
	case *ectsSession:
		w.Byte(sessTagECTS)
		writeDecisionState(w, s.done, s.decision)
		snapshotBank(w, s.bank)
		return nil
	case *probThresholdSession:
		w.Byte(sessTagProbThresh)
		writeDecisionState(w, s.done, s.dec)
		snapshotBank(w, s.bank)
		return nil
	case *fixedPrefixSession:
		w.Byte(sessTagFixedPrefix)
		writeDecisionState(w, s.done, s.dec)
		w.Floats(s.buf)
		return nil
	case *teaserSession:
		w.Byte(sessTagTEASER)
		writeDecisionState(w, s.done, s.decision)
		w.Floats(s.buf)
		w.Int(s.nextSnap)
		w.Int(s.streak)
		w.Int(s.streakLabel)
		return nil
	case *edscSession:
		w.Byte(sessTagEDSC)
		writeDecisionState(w, s.done, s.decision)
		w.Floats(s.buf)
		w.Ints(s.nextStart)
		return nil
	case *relClassSession:
		w.Byte(sessTagRelClass)
		writeDecisionState(w, s.done, s.dec)
		writeDecision(w, s.last)
		w.Int(s.seen)
		w.Int(s.estimates)
		w.Floats(s.scr.lp)
		return nil
	case *pureAdapter:
		w.Byte(sessTagPureAdapter)
		writeDecisionState(w, s.done, s.dec)
		w.Floats(s.buf)
		return nil
	default:
		return fmt.Errorf("etsc: session type %T does not support snapshots", sess)
	}
}

// RestoreSessionState loads scratch written by SnapshotSessionState into
// sess, which must be a freshly opened session (OpenSession on the same
// trained classifier) that has never seen a point. A tag that does not
// match the target session's type, or any structurally invalid field,
// fails with an error wrapping snap.ErrCorrupt; sess is not guaranteed
// usable afterwards.
func RestoreSessionState(sess IncrementalSession, r *snap.Reader) error {
	tag := r.Byte()
	if r.Err() != nil {
		return r.Err()
	}
	switch s := sess.(type) {
	case *ectsSession:
		if tag != sessTagECTS {
			return tagMismatch(tag, sess)
		}
		s.done, s.decision = readDecisionState(r)
		return restoreBank(r, s.bank, s.e.full)
	case *probThresholdSession:
		if tag != sessTagProbThresh {
			return tagMismatch(tag, sess)
		}
		s.done, s.dec = readDecisionState(r)
		return restoreBank(r, s.bank, s.p.full)
	case *fixedPrefixSession:
		if tag != sessTagFixedPrefix {
			return tagMismatch(tag, sess)
		}
		s.done, s.dec = readDecisionState(r)
		buf := r.Floats()
		if err := r.Err(); err != nil {
			return err
		}
		if len(buf) > s.f.At {
			return fmt.Errorf("%w: fixedprefix buffer %d exceeds decision length %d", snap.ErrCorrupt, len(buf), s.f.At)
		}
		s.buf = append(s.buf[:0], buf...)
		return nil
	case *teaserSession:
		if tag != sessTagTEASER {
			return tagMismatch(tag, sess)
		}
		s.done, s.decision = readDecisionState(r)
		buf := r.Floats()
		nextSnap, streak, streakLabel := r.Int(), r.Int(), r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		t := s.t
		if len(buf) > t.full {
			return fmt.Errorf("%w: teaser buffer %d exceeds full length %d", snap.ErrCorrupt, len(buf), t.full)
		}
		if nextSnap < 0 || nextSnap > len(t.lengths) {
			return fmt.Errorf("%w: teaser snapshot cursor %d outside 0..%d", snap.ErrCorrupt, nextSnap, len(t.lengths))
		}
		if streak < 0 {
			return fmt.Errorf("%w: negative teaser streak %d", snap.ErrCorrupt, streak)
		}
		s.buf = append(s.buf[:0], buf...)
		s.nextSnap, s.streak, s.streakLabel = nextSnap, streak, streakLabel
		return nil
	case *edscSession:
		if tag != sessTagEDSC {
			return tagMismatch(tag, sess)
		}
		s.done, s.decision = readDecisionState(r)
		buf := r.Floats()
		nextStart := r.Ints()
		if err := r.Err(); err != nil {
			return err
		}
		e := s.e
		if len(buf) > e.full {
			return fmt.Errorf("%w: edsc buffer %d exceeds full length %d", snap.ErrCorrupt, len(buf), e.full)
		}
		if len(nextStart) != len(e.Shapelets) {
			return fmt.Errorf("%w: edsc scan state over %d shapelets, model has %d", snap.ErrCorrupt, len(nextStart), len(e.Shapelets))
		}
		for i, st := range nextStart {
			if st < 0 || st > e.full {
				return fmt.Errorf("%w: edsc shapelet %d scan start %d outside 0..%d", snap.ErrCorrupt, i, st, e.full)
			}
		}
		s.buf = append(s.buf[:0], buf...)
		copy(s.nextStart, nextStart)
		return nil
	case *relClassSession:
		if tag != sessTagRelClass {
			return tagMismatch(tag, sess)
		}
		s.done, s.dec = readDecisionState(r)
		s.last = readDecision(r)
		seen, estimates := r.Int(), r.Int()
		lp := r.Floats()
		if err := r.Err(); err != nil {
			return err
		}
		rc := s.r
		if seen < 0 || seen > rc.full {
			return fmt.Errorf("%w: relclass seen %d outside 0..%d", snap.ErrCorrupt, seen, rc.full)
		}
		if estimates < 0 {
			return fmt.Errorf("%w: negative relclass estimate count %d", snap.ErrCorrupt, estimates)
		}
		if len(lp) != len(rc.labels) {
			return fmt.Errorf("%w: relclass posterior over %d classes, model has %d", snap.ErrCorrupt, len(lp), len(rc.labels))
		}
		s.seen, s.estimates = seen, estimates
		copy(s.scr.lp, lp)
		return nil
	case *pureAdapter:
		if tag != sessTagPureAdapter {
			return tagMismatch(tag, sess)
		}
		s.done, s.dec = readDecisionState(r)
		buf := r.Floats()
		if err := r.Err(); err != nil {
			return err
		}
		if len(buf) > s.full {
			return fmt.Errorf("%w: session buffer %d exceeds full length %d", snap.ErrCorrupt, len(buf), s.full)
		}
		s.buf = append(s.buf[:0], buf...)
		return nil
	default:
		return fmt.Errorf("etsc: session type %T does not support snapshots", sess)
	}
}

func tagMismatch(tag byte, sess IncrementalSession) error {
	return fmt.Errorf("%w: session tag %q does not match session type %T", snap.ErrCorrupt, tag, sess)
}

func writeDecision(w *snap.Writer, d Decision) {
	w.Int(d.Label)
	w.Bool(d.Ready)
}

func readDecision(r *snap.Reader) Decision {
	return Decision{Label: r.Int(), Ready: r.Bool()}
}

func writeDecisionState(w *snap.Writer, done bool, d Decision) {
	w.Bool(done)
	writeDecision(w, d)
}

func readDecisionState(r *snap.Reader) (bool, Decision) {
	done := r.Bool()
	return done, readDecision(r)
}

// snapshotBank serializes a distance bank's exact accumulator vector.
func snapshotBank(w *snap.Writer, b *ts.PrefixDistBank) {
	w.Byte(bankFlavorEager)
	w.Int(b.Len())
	w.Floats(b.D2())
}

// restoreBank loads a bank snapshot into a fresh bank. An eager snapshot
// restores the accumulators verbatim; a lazy snapshot (the raw query
// prefix, written by the retired lazy frontier) replays the query through
// Extend, which is bit-identical to the original accumulation.
func restoreBank(r *snap.Reader, b *ts.PrefixDistBank, full int) error {
	flavor := r.Byte()
	if r.Err() != nil {
		return r.Err()
	}
	switch flavor {
	case bankFlavorEager:
		n := r.Int()
		d2 := r.Floats()
		if err := r.Err(); err != nil {
			return err
		}
		if err := b.RestoreState(n, d2); err != nil {
			return fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
		}
		return nil
	case bankFlavorLazy:
		q := r.Floats()
		if err := r.Err(); err != nil {
			return err
		}
		if len(q) > full {
			return fmt.Errorf("%w: bank query %d exceeds full length %d", snap.ErrCorrupt, len(q), full)
		}
		if b.Len() != 0 {
			return fmt.Errorf("%w: bank restore into a used bank", snap.ErrCorrupt)
		}
		b.Extend(q)
		return nil
	default:
		return fmt.Errorf("%w: unknown bank flavor %q", snap.ErrCorrupt, flavor)
	}
}
