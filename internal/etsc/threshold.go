package etsc

import (
	"errors"
	"fmt"
	"math"

	"etsc/internal/dataset"
	"etsc/internal/ts"
)

// ProbThreshold is the paper's Fig. 3 (right) framing: "the ETSC algorithm
// simply predicts the probability of being in each class, and if that
// probability exceeds some user-specified threshold" it commits. The
// posterior is a softmin over nearest per-class raw-prefix distances.
// Like ECTS/EDSC/RelClass, it measures raw incoming values against
// z-normalized training data — the §4 flaw.
type ProbThreshold struct {
	Threshold float64
	MinPrefix int
	// Sharpness scales the softmin temperature; higher values produce a
	// more decisive posterior (default 5, so a clear nearest class can
	// actually reach the 0.8 threshold of the paper's example).
	Sharpness float64

	train  *dataset.Dataset
	labels []int       // sorted label set, cached for the session hot path
	li     *labelIndex // dense class indexing for the session hot path
	refs   [][]float64 // training series, for incremental distance banks
	full   int
}

// trainProbThreshold is the construction path behind the registry.
// threshold is the user's commitment probability (the paper's example uses
// 0.8); minPrefix guards against trivial commitments on the first couple of
// points.
func trainProbThreshold(train *dataset.Dataset, threshold float64, minPrefix int) (*ProbThreshold, error) {
	if train == nil || train.Len() < 2 {
		return nil, errors.New("etsc: ProbThreshold needs at least 2 training instances")
	}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("etsc: ProbThreshold: %w", err)
	}
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("etsc: ProbThreshold threshold must be in (0,1), got %v", threshold)
	}
	if minPrefix < 1 {
		minPrefix = 1
	}
	li := newLabelIndex(train)
	return &ProbThreshold{
		Threshold: threshold,
		MinPrefix: minPrefix,
		Sharpness: 5,
		train:     train,
		labels:    li.labels,
		li:        li,
		refs:      seriesRefs(train),
		full:      train.SeriesLen(),
	}, nil
}

// Name implements EarlyClassifier.
func (p *ProbThreshold) Name() string {
	return fmt.Sprintf("ProbThreshold(%.2f)", p.Threshold)
}

// FullLength implements EarlyClassifier.
func (p *ProbThreshold) FullLength() int { return p.full }

// ClassifyPrefix implements EarlyClassifier.
func (p *ProbThreshold) ClassifyPrefix(prefix []float64) Decision {
	post := softminPosteriorT(p.train, prefix, p.Sharpness)
	return p.decide(post, len(prefix))
}

// decide turns a posterior at the given prefix length into a decision; the
// pure (map) path funnels into decideTop, which the dense session path
// calls directly, so both resolve thresholds and ties identically.
func (p *ProbThreshold) decide(post map[int]float64, l int) Decision {
	if post == nil {
		return Decision{}
	}
	bestLabel, bestP := maxPosterior(post)
	return p.decideTop(bestLabel, bestP, l)
}

// decideTop is the shared decision tail on an already-resolved MAP label.
func (p *ProbThreshold) decideTop(label int, bestP float64, l int) Decision {
	ready := bestP >= p.Threshold && l >= p.MinPrefix
	return Decision{Label: label, Ready: ready}
}

// NewIncrementalSession implements IncrementalClassifier: a running
// squared-distance bank over the training prefixes (O(n · Δl) per step)
// whose complete distance vector reduces to the per-class nearest
// distances the softmin posterior needs. The dense posterior core is the
// one ClassifyPrefix's map path funnels into, so decisions match it
// exactly. All scratch is session-owned and preallocated; steady-state
// Extends do not allocate.
func (p *ProbThreshold) NewIncrementalSession() IncrementalSession {
	return &probThresholdSession{
		p:       p,
		bank:    ts.NewPrefixDistBank(p.refs),
		nearest: make([]float64, p.li.classes()),
		post:    make([]float64, p.li.classes()),
	}
}

type probThresholdSession struct {
	p       *ProbThreshold
	bank    *ts.PrefixDistBank
	nearest []float64 // per-class nearest distance scratch
	post    []float64 // posterior scratch
	done    bool
	dec     Decision
}

// Extend implements IncrementalSession. Points past the model's full length
// are dropped per the session truncation contract (see
// IncrementalSession.Extend).
func (s *probThresholdSession) Extend(points []float64) Decision {
	if s.done {
		return s.dec
	}
	if room := s.p.full - s.bank.Len(); len(points) > room {
		points = points[:room]
	}
	s.bank.Extend(points)
	l := s.bank.Len()
	if l < 1 {
		return Decision{}
	}
	s.p.li.nearestFromSquaredDists(s.bank.D2(), s.nearest)
	softminDenseInto(s.nearest, s.p.Sharpness, s.post)
	ci, bestP := maxDense(s.post)
	d := s.p.decideTop(s.p.li.labels[ci], bestP, l)
	if d.Ready {
		s.done, s.dec = true, d
	}
	return d
}

// ForcedLabel implements EarlyClassifier: full-length raw-ED 1NN.
func (p *ProbThreshold) ForcedLabel(series []float64) int {
	l := minIntE(len(series), p.full)
	best, bestD := 0, math.Inf(1)
	for _, in := range p.train.Instances {
		d, ok := ts.SquaredEuclideanEA(series[:l], in.Series[:l], bestD)
		if ok && d < bestD {
			best, bestD = in.Label, d
		}
	}
	return best
}

// PosteriorPrefix implements PosteriorProvider.
func (p *ProbThreshold) PosteriorPrefix(prefix []float64) map[int]float64 {
	return softminPosteriorT(p.train, prefix, p.Sharpness)
}

// FixedPrefix is the trivial baseline of the paper's Fig. 9 discussion:
// always classify at one predetermined prefix length using 1NN, optionally
// re-z-normalizing both sides (the "basic data cleaning, not a publishable
// research model" the paper contrasts ETSC against).
type FixedPrefix struct {
	At     int  // prefix length at which to classify
	ZNorm  bool // re-z-normalize the truncations (correct handling)
	train  *dataset.Dataset
	prefix *dataset.Dataset // training prefixes, prepared once
	full   int
}

// trainFixedPrefix is the FixedPrefix trainer behind the registry: the
// prepared training prefixes come from the context's truncation cache
// (exactly train.Truncate's output), so N FixedPrefix models at the same
// decision length on one context share one prepared set instead of
// truncating and re-normalizing N times.
func trainFixedPrefix(c *TrainContext, at int, znorm bool) (*FixedPrefix, error) {
	train := c.train
	if at < 1 || at > train.SeriesLen() {
		return nil, fmt.Errorf("etsc: FixedPrefix length %d out of range 1..%d", at, train.SeriesLen())
	}
	pre, err := c.Prefixes(at, znorm)
	if err != nil {
		return nil, err
	}
	return &FixedPrefix{At: at, ZNorm: znorm, train: train, prefix: pre, full: train.SeriesLen()}, nil
}

// Name implements EarlyClassifier.
func (f *FixedPrefix) Name() string {
	if f.ZNorm {
		return fmt.Sprintf("FixedPrefix(at=%d,znorm)", f.At)
	}
	return fmt.Sprintf("FixedPrefix(at=%d,raw)", f.At)
}

// FullLength implements EarlyClassifier.
func (f *FixedPrefix) FullLength() int { return f.full }

// ClassifyPrefix implements EarlyClassifier.
func (f *FixedPrefix) ClassifyPrefix(prefix []float64) Decision {
	if len(prefix) < f.At {
		return Decision{}
	}
	return Decision{Label: f.classifyAt(prefix), Ready: true}
}

func (f *FixedPrefix) classifyAt(prefix []float64) int {
	return f.classifyAtInto(prefix, nil)
}

// classifyAtInto is classifyAt with an optional caller-owned z-norm scratch
// buffer of length At (nil allocates, as the pure path does); the session
// passes its own so the decision step is allocation-free.
func (f *FixedPrefix) classifyAtInto(prefix, scratch []float64) int {
	q := prefix[:f.At]
	if f.ZNorm {
		if scratch == nil {
			scratch = make([]float64, f.At)
		}
		ts.ZNormInto(scratch[:f.At], q)
		q = scratch[:f.At]
	}
	best, bestD := 0, math.Inf(1)
	for _, in := range f.prefix.Instances {
		d, ok := ts.SquaredEuclideanEA(q, in.Series, bestD)
		if ok && d < bestD {
			best, bestD = in.Label, d
		}
	}
	return best
}

// NewIncrementalSession implements IncrementalClassifier: points are
// buffered at O(1) cost until the decision length At arrives, then the 1NN
// vote runs exactly once — where the pure path would be consulted at every
// intermediate opportunity. Buffer and z-norm scratch are preallocated, so
// Extend never allocates.
func (f *FixedPrefix) NewIncrementalSession() IncrementalSession {
	s := &fixedPrefixSession{f: f, buf: make([]float64, 0, f.At)}
	if f.ZNorm {
		s.zn = make([]float64, f.At)
	}
	return s
}

type fixedPrefixSession struct {
	f    *FixedPrefix
	buf  []float64
	zn   []float64 // z-norm scratch for the decision step (nil when raw)
	done bool
	dec  Decision
}

// Extend implements IncrementalSession. Points past the decision length are
// dropped per the session truncation contract (see
// IncrementalSession.Extend).
func (s *fixedPrefixSession) Extend(points []float64) Decision {
	if s.done {
		return s.dec
	}
	s.buf = appendClamped(s.buf, points, s.f.At)
	if len(s.buf) < s.f.At {
		return Decision{}
	}
	s.done = true
	s.dec = Decision{Label: s.f.classifyAtInto(s.buf, s.zn), Ready: true}
	return s.dec
}

// ForcedLabel implements EarlyClassifier.
func (f *FixedPrefix) ForcedLabel(series []float64) int {
	if len(series) >= f.At {
		return f.classifyAt(series)
	}
	// Degenerate: series shorter than the decision point; nearest by
	// whatever overlap exists.
	q := ts.Series(series)
	if f.ZNorm {
		q = ts.ZNorm(q)
	}
	best, bestD := 0, math.Inf(1)
	for _, in := range f.prefix.Instances {
		d := ts.SquaredEuclidean(q, in.Series[:len(q)])
		if d < bestD {
			best, bestD = in.Label, d
		}
	}
	return best
}
