package etsc

import (
	"etsc/internal/dataset"
	"etsc/internal/par"
)

// This file is the incremental evaluation engine: a session API that feeds
// classifiers only the newly arrived points of a stream, instead of
// replaying the whole growing prefix on every call. ClassifyPrefix remains
// the pure reference path; every incremental session is required to produce
// identical decisions (label, readiness, decision point), which
// engine_test.go asserts for every classifier in the package.

// IncrementalSession accumulates one stream's state point-at-a-time:
// Extend receives only the points that arrived since the previous call, so
// a well-implemented session does O(Δ) work per call where the pure path
// does O(l).
type IncrementalSession interface {
	// Extend appends newly arrived points to the stream seen so far and
	// returns the classifier's current decision. Once a decision is Ready
	// the session latches: further Extends return the same decision.
	//
	// Truncation contract: a session consumes at most FullLength points.
	// When an Extend spans the boundary, the overflow is truncated — only
	// the first room = FullLength − seen points are applied — and once
	// room == 0 every subsequent batch is dropped whole: the call still
	// returns the (unchanged) full-length decision, and no error or panic
	// signals the overfeed. This is deliberate, mirroring the hub's
	// explicit-contract style: monitors slice exact windows, so overfeed
	// only occurs when a caller replays a stream past a model's horizon,
	// and the stable full-length decision is the correct answer there.
	// Callers that must detect overfeed compare their own point count
	// against FullLength. TestSessionTruncationAtFull pins this behaviour
	// for every native session, including the exact room == 0 edge.
	Extend(points []float64) Decision
}

// IncrementalClassifier is implemented by classifiers with a native
// incremental session — per-exemplar accumulator state (running distance
// sums, log-posterior sums, scan positions) that a whole-prefix replay
// would rebuild from scratch at every length.
type IncrementalClassifier interface {
	EarlyClassifier
	NewIncrementalSession() IncrementalSession
}

// EngineMode is the retired inference-engine selector. One engine remains
// (the eager distance bank), so no function reads a mode any more.
//
// Deprecated: kept only so OpenSessionMode, stream.NewOnlineEngine and
// hub.StreamConfig.Engine keep compiling for their last callers; all three
// ignore the value.
type EngineMode int

// OpenSession returns the most efficient per-stream session the classifier
// supports: its native incremental session when it implements
// IncrementalClassifier, and a buffering adapter over the pure
// ClassifyPrefix path otherwise. Every evaluation harness (RunOne,
// stream.Monitor, stream.Online) drives classifiers through this single
// entry point.
func OpenSession(c EarlyClassifier) IncrementalSession {
	if ic, ok := c.(IncrementalClassifier); ok {
		return ic.NewIncrementalSession()
	}
	return &pureAdapter{c: c, full: c.FullLength()}
}

// OpenSessionMode is OpenSession; the mode is ignored.
//
// Deprecated: use OpenSession.
func OpenSessionMode(c EarlyClassifier, mode EngineMode) IncrementalSession {
	return OpenSession(c)
}

// pureAdapter presents a stateless classifier as an IncrementalSession by
// buffering the stream and replaying the prefix — the reference path's cost
// model, behind the engine API.
type pureAdapter struct {
	c    EarlyClassifier
	full int
	buf  []float64
	done bool
	dec  Decision
}

// Extend implements IncrementalSession.
func (a *pureAdapter) Extend(points []float64) Decision {
	if a.done {
		return a.dec
	}
	a.buf = appendClamped(a.buf, points, a.full)
	d := a.c.ClassifyPrefix(a.buf)
	if d.Ready {
		a.done, a.dec = true, d
	}
	return d
}

// appendClamped appends points to buf, dropping any beyond full points
// total — the buffering half of the session truncation contract (see
// IncrementalSession.Extend): at room == 0 the whole batch is dropped and
// buf returns unchanged.
func appendClamped(buf, points []float64, full int) []float64 {
	if room := full - len(buf); len(points) > room {
		points = points[:room]
	}
	return append(buf, points...)
}

// seriesRefs collects the instance series of a dataset as a reference set
// for incremental distance banks.
func seriesRefs(d *dataset.Dataset) [][]float64 {
	refs := make([][]float64, d.Len())
	for i, in := range d.Instances {
		refs[i] = in.Series
	}
	return refs
}

// EvaluateParallel is Evaluate with the per-exemplar runs fanned across a
// worker pool of the given size (workers <= 0 means one worker per CPU).
// Classifiers are read-only after training and sessions are per-exemplar,
// so the outcome slice — ordered by test instance, exactly as Evaluate
// orders it — is identical for every worker count.
func EvaluateParallel(c EarlyClassifier, test *dataset.Dataset, step, workers int) (Summary, error) {
	if err := checkEvaluate(c, test); err != nil {
		return Summary{}, err
	}
	s := Summary{Full: c.FullLength(), Outcomes: make([]Outcome, test.Len())}
	par.Do(test.Len(), workers, func(i int) {
		in := test.Instances[i]
		label, length, forced := RunOne(c, in.Series, step)
		s.Outcomes[i] = Outcome{Predicted: label, Actual: in.Label, Length: length, Forced: forced}
	})
	return s, nil
}
