package etsc

import (
	"fmt"
	"math"

	"etsc/internal/dataset"
	"etsc/internal/par"
	"etsc/internal/stats"
	"etsc/internal/ts"
)

// TEASER implements the two-tier early classifier of Schäfer & Leser
// (Data Mining and Knowledge Discovery, 2020) at the architectural level:
//
//   - S snapshot lengths l_k = k·L/S. At each snapshot a probabilistic
//     "slave" classifier produces a label and class posterior.
//   - A per-snapshot one-class "master" decides whether that slave's
//     posterior pattern looks like the posteriors it produced when it was
//     *correct* on training data (we use a Gaussian envelope over
//     [top probability, margin] features; the original uses a one-class
//     SVM — same role, same inputs).
//   - A prediction is emitted only after V consecutive snapshots agree on
//     the same accepted label.
//
// Per the paper's footnote 2 ("Paper [2] does not have this flaw. The
// current authors warned them of this issue before [2] was published"),
// TEASER z-normalizes every prefix before classifying it, so it does not
// assume the stream arrives pre-normalized. Set ZNormPrefix=false to get
// the counterfactual flawed variant for the ablation bench.
type TEASER struct {
	Snapshots   int
	V           int  // required consecutive consistent predictions
	ZNormPrefix bool // footnote-2 behaviour (true = as published)

	train *dataset.Dataset
	li    *labelIndex // dense class indexing for the session hot path
	// sets holds each snapshot's slave training set: the prefixes
	// z-normalized under ZNormPrefix, raw otherwise. rows views the same
	// series as kernel rows for the session scan. Both are read-only after
	// training, so sessions on a shared model scan them race-free.
	sets    []*dataset.Dataset
	rows    [][][]float64
	lengths []int
	masters []oneClassGate
	full    int
}

// TEASERConfig controls training.
type TEASERConfig struct {
	Snapshots   int     // number of snapshot lengths (paper: 20)
	V           int     // consecutive-agreement requirement (paper: tuned, often 2-3)
	ZNormPrefix bool    // true reproduces the published normalization handling
	GateSigma   float64 // master acceptance envelope width in std units
}

// DefaultTEASERConfig returns the configuration used by the experiments.
func DefaultTEASERConfig() TEASERConfig {
	return TEASERConfig{Snapshots: 20, V: 3, ZNormPrefix: true, GateSigma: 2.5}
}

// oneClassGate is the Gaussian-envelope master for one snapshot.
type oneClassGate struct {
	meanTop, stdTop       float64
	meanMargin, stdMargin float64
	sigma                 float64
	trained               bool
}

func (g oneClassGate) accept(top, margin float64) bool {
	if !g.trained {
		return false
	}
	if math.Abs(top-g.meanTop) > g.sigma*g.stdTop {
		return false
	}
	if margin < g.meanMargin-g.sigma*g.stdMargin {
		return false
	}
	return true
}

// trainTEASER is the TEASER trainer behind the registry: the per-snapshot
// truncated training sets come from the context's prefix cache (computed
// once and shared with every trainer that touches the same lengths), and
// the per-snapshot leave-one-out slave scans — the dominant
// O(snapshots·n²·l) training cost — read the memoized prefix-distance
// matrix (z-normalized flavor under the published footnote-2 setting, raw
// under the counterfactual) and fan across the context's pool. The trained
// model is identical for any worker count: matrix entries equal
// SquaredEuclidean over the same cached prefixes, and the gate statistics
// are assembled in instance order.
func trainTEASER(c *TrainContext, cfg TEASERConfig) (*TEASER, error) {
	t, cfg, err := teaserSetup(c.train, cfg)
	if err != nil {
		return nil, err
	}
	for _, l := range t.lengths {
		set, err := c.Prefixes(l, t.ZNormPrefix)
		if err != nil {
			return nil, err
		}
		t.addSnapshot(set)
	}
	for _, l := range t.lengths {
		if t.ZNormPrefix {
			err = c.m.EnsureZNorm(l)
		} else {
			err = c.m.Ensure(l)
		}
		if err != nil {
			return nil, err
		}
	}
	t.fitMasters(func(si, i int) (int, float64, float64) {
		l := t.lengths[si]
		set := t.slaveSet(si)
		nearest := map[int]float64{}
		for j, in := range set.Instances {
			if j == i {
				continue
			}
			var d2 float64
			if t.ZNormPrefix {
				d2 = c.m.ZNormD2(i, j, l)
			} else {
				d2 = c.m.D2(i, j, l)
			}
			d := math.Sqrt(d2)
			if cur, ok := nearest[in.Label]; !ok || d < cur {
				nearest[in.Label] = d
			}
		}
		return nearestTopMargin(nearest)
	}, cfg.GateSigma, c.workers)
	return t, nil
}

// teaserSetup validates the configuration and builds the untrained model
// with its snapshot lengths.
func teaserSetup(train *dataset.Dataset, cfg TEASERConfig) (*TEASER, TEASERConfig, error) {
	if err := checkTrain("TEASER", train); err != nil {
		return nil, cfg, err
	}
	if cfg.Snapshots < 2 {
		cfg.Snapshots = 2
	}
	if cfg.V < 1 {
		cfg.V = 1
	}
	if cfg.GateSigma <= 0 {
		cfg.GateSigma = 2.5
	}
	return &TEASER{
		Snapshots:   cfg.Snapshots,
		V:           cfg.V,
		ZNormPrefix: cfg.ZNormPrefix,
		train:       train,
		li:          newLabelIndex(train),
		lengths:     snapshotLengths(train.SeriesLen(), cfg.Snapshots),
		full:        train.SeriesLen(),
	}, cfg, nil
}

// fitMasters trains one master per snapshot from leave-one-out posteriors
// of the slave on training prefixes, keeping only the correct predictions.
// loo(si, i) must return the slave's (label, top, margin) for training
// instance i at snapshot si with i excluded; calls for distinct i are
// fanned across the pool, and the gate statistics are assembled in instance
// order so the fit is identical for every worker count.
func (t *TEASER) fitMasters(loo func(si, i int) (int, float64, float64), sigma float64, workers int) {
	t.masters = make([]oneClassGate, len(t.lengths))
	type looResult struct {
		label       int
		top, margin float64
	}
	for si := range t.lengths {
		set := t.slaveSet(si)
		results := make([]looResult, set.Len())
		par.Do(set.Len(), workers, func(i int) {
			label, top, margin := loo(si, i)
			results[i] = looResult{label, top, margin}
		})
		var tops, margins []float64
		for i, in := range set.Instances {
			if results[i].label == in.Label {
				tops = append(tops, results[i].top)
				margins = append(margins, results[i].margin)
			}
		}
		if len(tops) < 2 {
			continue // gate stays untrained: this snapshot never accepts
		}
		var rt, rm stats.Running
		rt.AddAll(tops)
		rm.AddAll(margins)
		g := oneClassGate{
			meanTop: rt.Mean(), stdTop: math.Max(rt.Std(), 0.02),
			meanMargin: rm.Mean(), stdMargin: math.Max(rm.Std(), 0.02),
			sigma: sigma, trained: true,
		}
		t.masters[si] = g
	}
}

// addSnapshot appends the next snapshot's slave training set and its
// kernel rows, which are views of the set's series and copy no data.
func (t *TEASER) addSnapshot(set *dataset.Dataset) {
	rows := make([][]float64, set.Len())
	for i, in := range set.Instances {
		rows[i] = in.Series
	}
	t.sets = append(t.sets, set)
	t.rows = append(t.rows, rows)
}

func (t *TEASER) slaveSet(si int) *dataset.Dataset { return t.sets[si] }

// slavePosterior computes the snapshot-si slave's posterior for a prepared
// (already normalized if applicable) prefix, excluding training index skip
// (-1 for none). Returns label, top probability and margin (p1-p2).
func (t *TEASER) slavePosterior(si int, prepared []float64, skip int) (label int, top, margin float64) {
	return nearestTopMargin(t.slaveNearest(si, prepared, skip))
}

// slaveNearest returns the per-class nearest distance from a prepared
// prefix to the snapshot-si slave's references, excluding training index
// skip (-1 for none).
func (t *TEASER) slaveNearest(si int, prepared []float64, skip int) map[int]float64 {
	nearest := map[int]float64{}
	for i, in := range t.slaveSet(si).Instances {
		if i == skip {
			continue
		}
		d := math.Sqrt(ts.SquaredEuclidean(prepared, in.Series))
		if cur, ok := nearest[in.Label]; !ok || d < cur {
			nearest[in.Label] = d
		}
	}
	return nearest
}

// nearestTopMargin converts per-class nearest distances into the slave's
// softmin decision: the MAP label, its probability, and the top-two margin.
// It is the shared tail of the pure scan and the matrix-backed LOO path —
// a map view over topMarginDense, the same core the allocation-free session
// scan uses, so every path feeds identical distances through identical
// arithmetic. Labels are reduced in sorted order (not randomized map order)
// so the sums are bit-reproducible and exact probability ties break toward
// the smallest label in every path.
func nearestTopMargin(nearest map[int]float64) (label int, top, margin float64) {
	if len(nearest) == 0 {
		return 0, 0, 0
	}
	labels := sortedLabels(nearest)
	dense := make([]float64, len(labels))
	for c, lab := range labels {
		dense[c] = nearest[lab]
	}
	probs := make([]float64, len(labels))
	ci, top, margin := topMarginDense(dense, probs)
	return labels[ci], top, margin
}

// prepare converts a raw incoming prefix into the slave's input space.
func (t *TEASER) prepare(si int, prefix []float64) []float64 {
	return t.prepareInto(si, prefix, nil)
}

// prepareInto is prepare with an optional caller-owned z-norm scratch of
// capacity >= the snapshot length (nil allocates, as the pure path does).
// ZNorm is ZNormInto plus an allocation, so both paths normalize
// bit-identically.
func (t *TEASER) prepareInto(si int, prefix, scratch []float64) []float64 {
	l := len(t.slaveSet(si).Instances[0].Series)
	p := prefix[:l]
	if t.ZNormPrefix {
		if scratch == nil {
			scratch = make([]float64, l)
		}
		ts.ZNormInto(scratch[:l], p)
		return scratch[:l]
	}
	return p
}

// slaveTopMargin is the session's allocation-free slave decision: the same
// per-class nearest-distance reduction as slavePosterior (skip = none), but
// over dense scratch, with the references scanned in blocks of four by
// ts.GroupMinD2. Each distance is the same left-to-right fold as
// SquaredEuclidean and a per-class strict minimum does not depend on scan
// order, so the nearest distances, and therefore the (label, top, margin)
// triple, are byte-identical to the map path's. nearest2, nearest, and
// probs are class-indexed scratch owned by the caller.
func (t *TEASER) slaveTopMargin(si int, prepared []float64, nearest2, nearest, probs []float64) (label int, top, margin float64) {
	ts.GroupMinD2(nearest2, prepared, t.rows[si], t.li.classOf)
	for c, d := range nearest2 {
		nearest[c] = math.Sqrt(d)
	}
	ci, top, margin := topMarginDense(nearest, probs)
	return t.li.labels[ci], top, margin
}

// Name implements EarlyClassifier.
func (t *TEASER) Name() string {
	if t.ZNormPrefix {
		return fmt.Sprintf("TEASER(S=%d,v=%d)", t.Snapshots, t.V)
	}
	return fmt.Sprintf("TEASER-raw(S=%d,v=%d)", t.Snapshots, t.V)
}

// FullLength implements EarlyClassifier.
func (t *TEASER) FullLength() int { return t.full }

// ClassifyPrefix implements EarlyClassifier statelessly by replaying all
// snapshots that fit within the prefix and applying the consistency rule.
func (t *TEASER) ClassifyPrefix(prefix []float64) Decision {
	last := snapshotAt(t.lengths, len(prefix))
	if last < 0 {
		return Decision{}
	}
	streak, streakLabel := 0, 0
	var lastLabel int
	for si := 0; si <= last; si++ {
		label, top, margin := t.slavePosterior(si, t.prepare(si, prefix), -1)
		lastLabel = label
		if t.masters[si].accept(top, margin) {
			if streak > 0 && label == streakLabel {
				streak++
			} else {
				streak, streakLabel = 1, label
			}
			if streak >= t.V {
				return Decision{Label: streakLabel, Ready: true}
			}
		} else {
			streak = 0
		}
	}
	return Decision{Label: lastLabel, Ready: false}
}

// NewIncrementalSession implements IncrementalClassifier: the slave scan
// evaluates each snapshot exactly once as the stream grows, carrying the
// master-gated consistency streak across Extends — where the pure path
// replays every covered snapshot at every opportunity. The z-norm and
// per-class reduction scratch is session-owned, so steady-state Extends do
// not allocate.
func (t *TEASER) NewIncrementalSession() IncrementalSession {
	k := t.li.classes()
	return &teaserSession{
		t:        t,
		buf:      make([]float64, 0, t.full),
		prep:     make([]float64, t.full),
		nearest2: make([]float64, k),
		nearest:  make([]float64, k),
		probs:    make([]float64, k),
	}
}

type teaserSession struct {
	t           *TEASER
	buf         []float64
	prep        []float64 // z-norm scratch for snapshot prefixes
	nearest2    []float64 // per-class min squared distance scratch
	nearest     []float64 // per-class nearest distance scratch
	probs       []float64 // posterior scratch
	nextSnap    int
	streak      int
	streakLabel int
	done        bool
	decision    Decision
}

// Extend implements IncrementalSession. Points past the model's full length
// are dropped per the session truncation contract (see
// IncrementalSession.Extend).
func (s *teaserSession) Extend(points []float64) Decision {
	if s.done {
		return s.decision
	}
	t := s.t
	s.buf = appendClamped(s.buf, points, t.full)
	for s.nextSnap < len(t.lengths) && t.lengths[s.nextSnap] <= len(s.buf) {
		si := s.nextSnap
		s.nextSnap++
		prepared := t.prepareInto(si, s.buf, s.prep)
		label, top, margin := t.slaveTopMargin(si, prepared, s.nearest2, s.nearest, s.probs)
		if !t.masters[si].accept(top, margin) {
			s.streak = 0
			continue
		}
		if s.streak > 0 && label == s.streakLabel {
			s.streak++
		} else {
			s.streak, s.streakLabel = 1, label
		}
		if s.streak >= t.V {
			s.done = true
			s.decision = Decision{Label: s.streakLabel, Ready: true}
			return s.decision
		}
	}
	return Decision{}
}

// ForcedLabel implements EarlyClassifier: final-snapshot slave decision.
func (t *TEASER) ForcedLabel(series []float64) int {
	si := len(t.lengths) - 1
	label, _, _ := t.slavePosterior(si, t.prepare(si, series[:min(len(series), t.full)]), -1)
	return label
}

// PosteriorPrefix implements PosteriorProvider using the latest snapshot
// that fits the prefix: the slave's unit-sharpness softmin, reduced in
// sorted label order like every other posterior.
func (t *TEASER) PosteriorPrefix(prefix []float64) map[int]float64 {
	si := snapshotAt(t.lengths, len(prefix))
	if si < 0 {
		return nil
	}
	return softminFromNearest(t.slaveNearest(si, t.prepare(si, prefix), -1), 1)
}
