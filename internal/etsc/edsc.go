package etsc

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"etsc/internal/dataset"
	"etsc/internal/par"
	"etsc/internal/stats"
	"etsc/internal/ts"
)

// ThresholdMethod selects how EDSC learns a shapelet's distance threshold.
type ThresholdMethod int

// EDSC threshold-learning variants from Xing et al., SDM 2011.
const (
	// CHE bounds the non-target false-match probability with the one-sided
	// Chebyshev inequality: threshold = μ_nontarget − k·σ_nontarget.
	CHE ThresholdMethod = iota
	// KDE places the threshold at the largest distance at which the
	// kernel-density-estimated target evidence still dominates the
	// non-target evidence by the configured odds.
	KDE
)

// String returns the method name.
func (m ThresholdMethod) String() string {
	switch m {
	case CHE:
		return "CHE"
	case KDE:
		return "KDE"
	default:
		return fmt.Sprintf("ThresholdMethod(%d)", int(m))
	}
}

// EDSCConfig controls shapelet mining.
type EDSCConfig struct {
	Method       ThresholdMethod
	MinLen       int     // shortest candidate shapelet
	MaxLen       int     // longest candidate shapelet
	LenStep      int     // candidate length increment
	StartStride  int     // candidate start-position stride
	MaxSeries    int     // max training series mined for candidates (0 = all)
	CHEK         float64 // Chebyshev k (CHE method)
	KDEOdds      float64 // required target:non-target density odds (KDE method)
	MaxShapelets int     // cap on the selected rule set
}

// DefaultEDSCConfig returns mining parameters sized for UCR-scale datasets.
func DefaultEDSCConfig(method ThresholdMethod) EDSCConfig {
	return EDSCConfig{
		Method:       method,
		MinLen:       15,
		MaxLen:       60,
		LenStep:      15,
		StartStride:  8,
		MaxSeries:    30,
		CHEK:         1.5,
		KDEOdds:      2.0,
		MaxShapelets: 40,
	}
}

// Shapelet is one selected early-distinctive rule.
type Shapelet struct {
	Data      ts.Series
	Label     int
	Threshold float64 // raw Euclidean distance threshold
	Utility   float64
	Precision float64 // training-set match precision at Threshold
	Source    int     // training instance index the subsequence came from
	Offset    int     // start offset within the source instance
}

// EDSC is the Early Distinctive Shapelet Classifier. Like the published
// method it matches shapelets with plain (non-normalized) Euclidean
// distance in the space of the z-normalized training data — the assumption
// §4 of the paper shows cannot hold in a streaming deployment.
type EDSC struct {
	Config    EDSCConfig
	Shapelets []Shapelet

	train *dataset.Dataset
	full  int
}

// newEDSC mines and selects shapelets from train. EDSC's training cost is
// subsequence mining, not prefix distances, so it takes nothing from a
// TrainContext's memoized matrix; what a context contributes is its worker
// pool: the candidate-scoring sweep — one independent (source, length,
// offset) unit per slot — fans across workers. Candidates are assembled in
// enumeration order, so the selected shapelet set is byte-identical for any
// worker count.
func newEDSC(train *dataset.Dataset, cfg EDSCConfig, workers int) (*EDSC, error) {
	if err := checkTrain("EDSC", train); err != nil {
		return nil, err
	}
	L := train.SeriesLen()
	if cfg.MinLen < 2 || cfg.MaxLen < cfg.MinLen || cfg.MaxLen > L {
		return nil, fmt.Errorf("etsc: EDSC candidate lengths [%d,%d] invalid for series length %d",
			cfg.MinLen, cfg.MaxLen, L)
	}
	if cfg.LenStep < 1 {
		cfg.LenStep = 1
	}
	if cfg.StartStride < 1 {
		cfg.StartStride = 1
	}
	if cfg.MaxShapelets < 1 {
		cfg.MaxShapelets = 1
	}

	e := &EDSC{Config: cfg, train: train, full: L}

	// Which training series contribute candidates: a class-balanced prefix
	// of the training set, capped at MaxSeries.
	sources := candidateSources(train, cfg.MaxSeries)

	classTotal := train.ClassCounts()
	// Enumerate candidate (source, length, offset) triples, then score them
	// across the pool — each candidate is an independent unit writing its
	// own slot, and the survivor list is assembled in enumeration order, so
	// the mined set is identical for every worker count.
	type candSpec struct{ src, len, start int }
	var specs []candSpec
	for _, si := range sources {
		for l := cfg.MinLen; l <= cfg.MaxLen; l += cfg.LenStep {
			for st := 0; st+l <= L; st += cfg.StartStride {
				specs = append(specs, candSpec{si, l, st})
			}
		}
	}
	scored := make([]Shapelet, len(specs))
	usable := make([]bool, len(specs))
	par.Do(len(specs), workers, func(k int) {
		sp := specs[k]
		src := train.Instances[sp.src]
		cand := src.Series[sp.start : sp.start+sp.len]
		scored[k], usable[k] = e.scoreCandidate(cand, src.Label, sp.src, sp.start, classTotal)
	})
	var candidates []Shapelet
	for k := range specs {
		if usable[k] {
			candidates = append(candidates, scored[k])
		}
	}
	if len(candidates) == 0 {
		return nil, errors.New("etsc: EDSC found no usable shapelet candidates; loosen thresholds")
	}
	sort.Slice(candidates, func(a, b int) bool { return candidates[a].Utility > candidates[b].Utility })

	// Greedy cover: accept shapelets (best utility first) that cover at
	// least one not-yet-covered target training series.
	covered := make([]bool, train.Len())
	for _, sh := range candidates {
		if len(e.Shapelets) >= cfg.MaxShapelets {
			break
		}
		news := 0
		for j, in := range train.Instances {
			if covered[j] || in.Label != sh.Label {
				continue
			}
			if d, _ := bestMatchRaw(sh.Data, in.Series); d <= sh.Threshold {
				news++
			}
		}
		if news == 0 {
			continue
		}
		e.Shapelets = append(e.Shapelets, sh)
		for j, in := range train.Instances {
			if covered[j] || in.Label != sh.Label {
				continue
			}
			if d, _ := bestMatchRaw(sh.Data, in.Series); d <= sh.Threshold {
				covered[j] = true
			}
		}
	}
	// Fill remaining slots with the best not-yet-selected *precise*
	// candidates: redundant rules improve recall on unseen exemplars even
	// when the training set is already covered, but only rules that were
	// near-perfect on the training set may pre-empt the covering set.
	if len(e.Shapelets) < cfg.MaxShapelets {
		chosen := map[[2]int]bool{}
		for _, sh := range e.Shapelets {
			chosen[[2]int{sh.Source, sh.Offset}] = true
		}
		for _, sh := range candidates {
			if len(e.Shapelets) >= cfg.MaxShapelets {
				break
			}
			if sh.Precision < 0.95 {
				continue
			}
			key := [2]int{sh.Source, sh.Offset}
			if chosen[key] {
				continue
			}
			chosen[key] = true
			e.Shapelets = append(e.Shapelets, sh)
		}
	}
	if len(e.Shapelets) == 0 {
		// Fall back to the single best candidate so the classifier is
		// always usable; its threshold already passed the method's test.
		e.Shapelets = candidates[:1]
	}
	return e, nil
}

// candidateSources returns a class-balanced list of up to maxSeries
// training indices (0 = all).
func candidateSources(train *dataset.Dataset, maxSeries int) []int {
	if maxSeries <= 0 || maxSeries >= train.Len() {
		out := make([]int, train.Len())
		for i := range out {
			out[i] = i
		}
		return out
	}
	byClass := train.ByClass()
	labels := train.Labels()
	perClass := maxSeries / len(labels)
	if perClass < 1 {
		perClass = 1
	}
	var out []int
	for _, l := range labels {
		idx := byClass[l]
		if len(idx) > perClass {
			idx = idx[:perClass]
		}
		out = append(out, idx...)
	}
	sort.Ints(out)
	return out
}

// scoreCandidate computes the candidate's threshold (per the configured
// method) and utility; ok=false means no valid threshold exists.
func (e *EDSC) scoreCandidate(cand []float64, label, source, offset int, classTotal map[int]int) (Shapelet, bool) {
	n := e.train.Len()
	bmdTarget := make([]float64, 0, classTotal[label])
	bmdNon := make([]float64, 0, n-classTotal[label])
	matchEnd := make([]int, n) // end position of best match per series
	bmdAll := make([]float64, n)
	for j, in := range e.train.Instances {
		d, end := bestMatchRaw(cand, in.Series)
		bmdAll[j] = d
		matchEnd[j] = end
		if in.Label == label {
			bmdTarget = append(bmdTarget, d)
		} else {
			bmdNon = append(bmdNon, d)
		}
	}
	if len(bmdTarget) == 0 || len(bmdNon) == 0 {
		return Shapelet{}, false
	}

	var thr float64
	switch e.Config.Method {
	case CHE:
		var r stats.Running
		r.AddAll(bmdNon)
		thr = r.Mean() - e.Config.CHEK*r.Std()
	case KDE:
		kT := stats.NewKDE(bmdTarget, 0)
		kN := stats.NewKDE(bmdNon, 0)
		hi := stats.Quantile(sortedCopy(bmdNon), 0.5)
		thr = stats.CrossingBelow(kT, kN,
			float64(len(bmdTarget)), e.Config.KDEOdds*float64(len(bmdNon)),
			0, hi, 200)
	default:
		return Shapelet{}, false
	}
	if thr <= 0 {
		return Shapelet{}, false
	}

	// Utility: precision² × earliness-weighted recall on the training set.
	tp, fp := 0, 0
	weighted := 0.0
	for j, in := range e.train.Instances {
		if bmdAll[j] > thr {
			continue
		}
		if in.Label == label {
			tp++
			weighted += float64(e.full-matchEnd[j]+1) / float64(e.full)
		} else {
			fp++
		}
	}
	if tp == 0 {
		return Shapelet{}, false
	}
	precision := float64(tp) / float64(tp+fp)
	recallW := weighted / float64(classTotal[label])
	sh := Shapelet{
		Data:      append(ts.Series(nil), cand...),
		Label:     label,
		Threshold: thr,
		Utility:   precision * precision * recallW,
		Precision: precision,
		Source:    source,
		Offset:    offset,
	}
	return sh, true
}

// bestMatchRaw returns the minimum raw Euclidean distance of query over all
// windows of series, and the end index (exclusive) of the best window.
func bestMatchRaw(query, series []float64) (float64, int) {
	m := len(query)
	best := math.Inf(1)
	bestEnd := m
	for st := 0; st+m <= len(series); st++ {
		d, ok := ts.SquaredEuclideanEA(query, series[st:st+m], best)
		if ok && d < best {
			best = d
			bestEnd = st + m
		}
	}
	return math.Sqrt(best), bestEnd
}

// Name implements EarlyClassifier.
func (e *EDSC) Name() string { return "EDSC-" + e.Config.Method.String() }

// FullLength implements EarlyClassifier.
func (e *EDSC) FullLength() int { return e.full }

// ClassifyPrefix implements EarlyClassifier: the first shapelet (best
// utility first) matching anywhere in the prefix decides.
func (e *EDSC) ClassifyPrefix(prefix []float64) Decision {
	for _, sh := range e.Shapelets {
		m := len(sh.Data)
		if m > len(prefix) {
			continue
		}
		cut := sh.Threshold * sh.Threshold
		for st := 0; st+m <= len(prefix); st++ {
			if d, ok := ts.SquaredEuclideanEA(sh.Data, prefix[st:st+m], cut); ok && d <= cut {
				return Decision{Label: sh.Label, Ready: true}
			}
		}
	}
	return Decision{}
}

// ForcedLabel implements EarlyClassifier. The published EDSC leaves a
// series that never matched any shapelet *unclassified*; evaluations score
// it against the majority class. Returning the majority label preserves
// that semantic: when denormalization stops the shapelets firing, the
// result is the flood of effective false negatives §4 predicts.
func (e *EDSC) ForcedLabel(series []float64) int {
	counts := e.train.ClassCounts()
	best, bestN := 0, -1
	for _, label := range e.train.Labels() {
		if counts[label] > bestN {
			best, bestN = label, counts[label]
		}
	}
	return best
}

// NewIncrementalSession implements IncrementalClassifier with a scanner
// that only examines the windows each new batch of points completes: every
// (shapelet, window) pair is measured at most once per stream, where the
// pure path rescans the whole prefix at every opportunity. A shapelet match
// does not depend on the prefix length that revealed the window, so the
// decision point and label equal the pure path's. The stream buffer is
// preallocated to the model's full length, so Extend never allocates.
func (e *EDSC) NewIncrementalSession() IncrementalSession {
	return &edscSession{e: e, buf: make([]float64, 0, e.full), nextStart: make([]int, len(e.Shapelets))}
}

type edscSession struct {
	e         *EDSC
	buf       []float64
	nextStart []int // per shapelet, the next window start to examine
	done      bool
	decision  Decision
}

// Extend implements IncrementalSession. Points past the model's full length
// are dropped per the session truncation contract (see
// IncrementalSession.Extend).
func (s *edscSession) Extend(points []float64) Decision {
	if s.done {
		return s.decision
	}
	s.buf = appendClamped(s.buf, points, s.e.full)
	for si := range s.e.Shapelets {
		sh := &s.e.Shapelets[si]
		m := len(sh.Data)
		cut := sh.Threshold * sh.Threshold
		for st := s.nextStart[si]; st+m <= len(s.buf); st++ {
			if d, ok := ts.SquaredEuclideanEA(sh.Data, s.buf[st:st+m], cut); ok && d <= cut {
				s.done = true
				s.decision = Decision{Label: sh.Label, Ready: true}
				return s.decision
			}
			s.nextStart[si] = st + 1
		}
	}
	return Decision{}
}

// PosteriorPrefix implements PosteriorProvider (softmin over raw prefix
// distances, like the other flawed models).
func (e *EDSC) PosteriorPrefix(prefix []float64) map[int]float64 {
	return softminPosterior(e.train, prefix)
}

func sortedCopy(xs []float64) []float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp
}
