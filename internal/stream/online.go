package stream

import (
	"errors"
	"fmt"

	"etsc/internal/etsc"
)

// Online is the point-at-a-time counterpart of Monitor: data arrives one
// sample per Push call, candidate windows are opened every Stride samples,
// and each open candidate's classifier session is advanced every Step
// samples until it commits or its window completes. Memory is bounded by
// one window of samples plus WindowLen/Stride live sessions.
//
// Online(stride, step).PushBatch(stream) produces exactly the detections of
// Monitor{Stride: stride, Step: step}.Run(stream) (without suppression),
// which TestOnlineMatchesBatch asserts.
type Online struct {
	classifier etsc.EarlyClassifier
	stride     int
	step       int
	window     int

	pos        int // total samples consumed
	buf        []float64
	bufStart   int // stream index of buf[0]
	candidates []*onlineCandidate
	one        [1]float64 // Push's single-sample batch, so Push never allocates one
}

type onlineCandidate struct {
	start   int // stream index of the candidate window start
	nextLen int // prefix length at which to next consult the classifier
	seen    int // prefix length already fed to the session
	sess    etsc.IncrementalSession
}

// NewOnline builds an online monitor. Like Monitor, a stride or step of 0
// selects the default (4) and negative values are configuration errors.
func NewOnline(c etsc.EarlyClassifier, stride, step int) (*Online, error) {
	if c == nil {
		return nil, errors.New("stream: Online needs a classifier")
	}
	if stride < 0 {
		return nil, fmt.Errorf("stream: Online stride must be >= 0 (0 = default), got %d", stride)
	}
	if step < 0 {
		return nil, fmt.Errorf("stream: Online step must be >= 0 (0 = default), got %d", step)
	}
	if stride == 0 {
		stride = 4
	}
	if step == 0 {
		step = 4
	}
	window := c.FullLength()
	return &Online{
		classifier: c,
		stride:     stride,
		step:       step,
		window:     window,
		// The sample buffer's live span never exceeds window+1 points and
		// trimming reclaims dead prefixes by copy-down (below), so this one
		// allocation serves the stream forever.
		buf: make([]float64, 0, 2*(window+1)),
	}, nil
}

// NewOnlineEngine is NewOnline; the engine mode is ignored.
//
// Deprecated: use NewOnline.
func NewOnlineEngine(c etsc.EarlyClassifier, stride, step int, engine etsc.EngineMode) (*Online, error) {
	return NewOnline(c, stride, step)
}

// Pos returns the number of samples consumed so far.
func (o *Online) Pos() int { return o.pos }

// ActiveCandidates returns the number of live candidate windows.
func (o *Online) ActiveCandidates() int { return len(o.candidates) }

// Push consumes one sample and returns any detections that fired on it. It
// is the single-sample case of PushBatch (through a struct-owned one-point
// buffer, so the call itself never allocates).
func (o *Online) Push(v float64) []Detection {
	o.one[0] = v
	return o.PushBatch(o.one[:])
}

// PushBatch consumes a batch of samples as one unit and returns all
// detections that fired within it, in exactly the order point-at-a-time
// Push calls would have produced them.
//
// Instead of walking the candidate list once per point, the batch is
// processed candidate-major: candidates are opened for every stride
// boundary the batch crosses, the buffer extends once, and then each live
// candidate consumes *all* of its decision opportunities in the batch
// back-to-back — consecutive multi-point Extend calls into the same
// session, so its bank state stays hot and queued points reach the blocked
// distance kernel in as few calls as possible.
//
// Byte-identity with pointwise Push is structural: a candidate's Extend
// chunk boundaries are its opportunity lengths (seen → nextLen) in both
// orders; each candidate fires at most once, on the point DecisionAt =
// start + nextLen − 1; and pointwise emission order is (DecisionAt asc,
// then candidate order, which is ascending Start) — so sorting the
// candidate-major detections by (DecisionAt, Start) reproduces the
// pointwise transcript exactly. TestOnlinePushBatchMatchesPointwise and
// FuzzOnlinePush pin it.
func (o *Online) PushBatch(points []float64) []Detection {
	// Segment so the live span stays within the construction-time buffer:
	// after a forced trim the buffer holds at most window points, leaving
	// room for window+1 more under the 2·(window+1) capacity.
	if len(points) <= o.window+1 {
		return o.pushSegment(points)
	}
	var out []Detection
	for len(points) > 0 {
		n := o.window + 1
		if n > len(points) {
			n = len(points)
		}
		// Segments are processed in stream order, and every detection's
		// DecisionAt falls inside its own segment, so concatenation
		// preserves the global (DecisionAt, Start) order.
		out = append(out, o.pushSegment(points[:n])...)
		points = points[n:]
	}
	return out
}

func (o *Online) pushSegment(points []float64) []Detection {
	if len(points) == 0 {
		return nil
	}
	// Open a candidate at every stride boundary the segment crosses, before
	// its first point lands (the boundary point belongs to the window).
	// Every candidate gets its own incremental session from the engine, so
	// each point of the stream is processed once per live candidate rather
	// than once per (candidate, opportunity) pair.
	first := o.pos
	if r := o.pos % o.stride; r != 0 {
		first += o.stride - r
	}
	for s := first; s < o.pos+len(points); s += o.stride {
		o.candidates = append(o.candidates, &onlineCandidate{
			start:   s,
			nextLen: o.step,
			sess:    etsc.OpenSession(o.classifier),
		})
	}

	// A single-point push always fits (the steady-state length bound is
	// 2·window); a larger batch may need the dead prefix and any expired
	// span reclaimed up front to stay on the construction-time buffer.
	if len(o.buf)+len(points) > cap(o.buf) {
		o.trimTo(o.oldestLive(o.pos))
	}
	o.buf = append(o.buf, points...)
	o.pos += len(points)

	var out []Detection
	keep := o.candidates[:0]
	for _, c := range o.candidates {
		have := o.pos - c.start // points of this candidate's window seen
		base := c.start - o.bufStart
		done := false
		for c.nextLen <= have && c.nextLen <= o.window {
			d := c.sess.Extend(o.buf[base+c.seen : base+c.nextLen])
			c.seen = c.nextLen
			if d.Ready {
				out = append(out, Detection{
					Start:      c.start,
					DecisionAt: c.start + c.nextLen - 1,
					Label:      d.Label,
					Earliness:  float64(c.nextLen) / float64(o.window),
				})
				done = true
				break
			}
			c.nextLen += o.step
		}
		if !done && have < o.window {
			keep = append(keep, c)
		}
	}
	o.candidates = keep
	sortDetections(out)

	// Trim the buffer to the oldest live candidate (or the last window).
	// Reclaiming by copy-down — rather than re-slicing the dead prefix away,
	// which marches the slice window through its backing array until append
	// reallocates — keeps the stream on its construction-time buffer
	// forever: the live span is at most window points and the dead prefix is
	// trimmed once it reaches min(stride, window), so the length stays under
	// the preallocated 2·(window+1) capacity while each point is moved at
	// most once per stride of progress.
	oldest := o.oldestLive(o.pos)
	trimAt := o.stride
	if trimAt > o.window {
		trimAt = o.window
	}
	if oldest-o.bufStart >= trimAt {
		o.trimTo(oldest)
	}
	return out
}

// oldestLive returns the stream index of the oldest sample any live
// candidate (or the trailing window) can still need.
func (o *Online) oldestLive(pos int) int {
	oldest := pos - o.window
	for _, c := range o.candidates {
		if c.start < oldest {
			oldest = c.start
		}
	}
	return oldest
}

// trimTo copies the buffer down so it starts at stream index oldest.
func (o *Online) trimTo(oldest int) {
	if oldest <= o.bufStart {
		return
	}
	n := copy(o.buf, o.buf[oldest-o.bufStart:])
	o.buf = o.buf[:n]
	o.bufStart = oldest
}

// sortDetections orders by (DecisionAt, Start) — the pointwise emission
// order. Batches rarely hold more than a couple of detections, so an
// in-place insertion sort beats sort.Slice's closure allocation.
func sortDetections(ds []Detection) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && (ds[j].DecisionAt < ds[j-1].DecisionAt ||
			(ds[j].DecisionAt == ds[j-1].DecisionAt && ds[j].Start < ds[j-1].Start)); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}
