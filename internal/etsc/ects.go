package etsc

import (
	"fmt"
	"math"
	"sort"

	"etsc/internal/dataset"
	"etsc/internal/par"
	"etsc/internal/ts"
)

// ECTS implements Early Classification on Time Series (Xing, Pei & Yu,
// KAIS 2012). For every training instance it learns a Minimum Prediction
// Length (MPL): the earliest prefix length from which that instance's
// reverse-nearest-neighbour (RNN) relationships — and hence the
// classification decisions it supports — remain stable all the way to full
// length. At prediction time a prefix of length l is matched to its 1NN
// among training prefixes of length l; the classifier commits only when
// that neighbour's MPL is at most l.
//
// Relaxed=false requires the RNN set at every length >= MPL to equal the
// full-length RNN set; Relaxed=true only requires it to contain the
// full-length set. MinSupport is the minimum number of full-length reverse
// nearest neighbours an instance needs before it is allowed to trigger an
// early prediction (the paper's Table 1 uses min. support = 0).
//
// Like the published method, ECTS measures plain Euclidean distance on raw
// prefix values: it implicitly assumes the incoming stream is z-normalized
// with statistics of data it has not seen yet.
type ECTS struct {
	Relaxed    bool
	MinSupport int

	train *dataset.Dataset
	refs  [][]float64 // training series, for incremental distance banks
	mpl   []int       // minimum prediction length per training instance
	full  int
}

// trainECTS is the ECTS trainer behind the registry: the per-length
// pairwise distance sweep — the O(n²·L) bulk of ECTS training — reads the
// context's memoized prefix-distance matrix (materialized once, in
// parallel, and shared with every other trainer on the same context), and
// the per-length nearest-neighbour scans fan across the context's pool.
// The trained model is identical for any worker count: the matrix stores
// the exact in-order partial sums of a serial sweep, and each length's
// scan is an independent index-owned unit.
func trainECTS(c *TrainContext, relaxed bool, minSupport int) (*ECTS, error) {
	train := c.train
	if err := checkTrain("ECTS", train); err != nil {
		return nil, err
	}
	n := train.Len()
	L := train.SeriesLen()
	if err := c.m.Ensure(L); err != nil {
		return nil, err
	}
	nn := make([][]int32, L+1)
	par.Do(L, c.workers, func(k int) {
		l := k + 1
		nn[l] = ectsNearestAt(n, func(i, j int) float64 { return c.m.D2(i, j, l) })
	})
	return ectsFromNN(train, nn, relaxed, minSupport), nil
}

// ectsNearestAt computes every instance's 1NN at one prefix length from a
// pairwise squared-distance lookup, scanning candidates in ascending index
// order with a strict comparison, so ties break toward the lowest index.
func ectsNearestAt(n int, d2 func(i, j int) float64) []int32 {
	nl := make([]int32, n)
	for i := 0; i < n; i++ {
		best, bestD := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if dd := d2(i, j); dd < bestD {
				best, bestD = j, dd
			}
		}
		nl[i] = int32(best)
	}
	return nl
}

// ectsFromNN finishes training from the per-length nearest-neighbour table:
// the RNN stability walk that derives each instance's minimum prediction
// length.
func ectsFromNN(train *dataset.Dataset, nn [][]int32, relaxed bool, minSupport int) *ECTS {
	n := train.Len()
	L := train.SeriesLen()

	// RNN sets per length, as sorted member lists.
	rnn := func(l int) [][]int32 {
		out := make([][]int32, n)
		for i, b := range nn[l] {
			out[b] = append(out[b], int32(i))
		}
		return out
	}
	rnnFull := rnn(L)

	mpl := make([]int, n)
	for i := range mpl {
		mpl[i] = L + 1 // sentinel: never eligible
	}
	// Walk lengths downward; an instance's MPL is the smallest l such that
	// stability holds for every length in [l, L].
	stableFrom := make([]int, n)
	for i := range stableFrom {
		stableFrom[i] = L
	}
	ok := make([]bool, n)
	for i := range ok {
		ok[i] = true
	}
	for l := L; l >= 1; l-- {
		r := rnn(l)
		for i := 0; i < n; i++ {
			if !ok[i] {
				continue
			}
			// In the relaxed variant an empty full-length RNN set would
			// make the superset test vacuously true at every length, so
			// instances that are nobody's nearest neighbour fall back to
			// the strict (equality) test.
			var stable bool
			if relaxed && len(rnnFull[i]) > 0 {
				stable = containsAll(r[i], rnnFull[i])
			} else {
				stable = int32SlicesEqual(r[i], rnnFull[i])
			}
			if stable {
				stableFrom[i] = l
			} else {
				ok[i] = false
			}
		}
	}
	for i := 0; i < n; i++ {
		if len(rnnFull[i]) < minSupport {
			continue // not enough support to ever trigger
		}
		mpl[i] = stableFrom[i]
	}

	return &ECTS{Relaxed: relaxed, MinSupport: minSupport, train: train,
		refs: seriesRefs(train), mpl: mpl, full: L}
}

// Name implements EarlyClassifier.
func (e *ECTS) Name() string {
	if e.Relaxed {
		return fmt.Sprintf("RelaxedECTS(support=%d)", e.MinSupport)
	}
	return fmt.Sprintf("ECTS(support=%d)", e.MinSupport)
}

// FullLength implements EarlyClassifier.
func (e *ECTS) FullLength() int { return e.full }

// MPL returns the learned minimum prediction length of training instance i.
func (e *ECTS) MPL(i int) int { return e.mpl[i] }

// ClassifyPrefix implements EarlyClassifier: 1NN over training prefixes of
// the same length; commit if the neighbour's MPL has been reached.
func (e *ECTS) ClassifyPrefix(prefix []float64) Decision {
	l := len(prefix)
	if l < 1 || l > e.full {
		return Decision{}
	}
	best, label := nearestNeighbor(e.train, prefix, -1)
	if best < 0 {
		return Decision{}
	}
	if e.mpl[best] <= l {
		return Decision{Label: label, Ready: true}
	}
	return Decision{Label: label, Ready: false}
}

// ForcedLabel implements EarlyClassifier: plain full-length 1NN.
func (e *ECTS) ForcedLabel(series []float64) int {
	_, label := nearestNeighbor(e.train, series[:min(len(series), e.full)], -1)
	return label
}

// PosteriorPrefix implements PosteriorProvider with a softmin over nearest
// per-class prefix distances.
func (e *ECTS) PosteriorPrefix(prefix []float64) map[int]float64 {
	return softminPosterior(e.train, prefix)
}

// NewIncrementalSession implements IncrementalClassifier: a running
// squared-distance bank over the training prefixes, so each Extend advances
// every accumulator by the new points (O(n · Δl)) and reads the nearest
// neighbour off the bank instead of rescanning whole prefixes.
func (e *ECTS) NewIncrementalSession() IncrementalSession {
	return &ectsSession{e: e, bank: ts.NewPrefixDistBank(e.refs)}
}

type ectsSession struct {
	e        *ECTS
	bank     *ts.PrefixDistBank // running squared distance to each training prefix
	done     bool
	decision Decision
}

// Extend implements IncrementalSession. Per the session truncation
// contract, points past the model's full length are dropped: the slice is
// clamped to the remaining room, and at exactly room == 0 the clamp is
// points[:0] — the bank stays at full length and the decision below is
// recomputed from the unchanged full-length distances, so overfed calls
// keep returning the stable full-length decision.
func (s *ectsSession) Extend(points []float64) Decision {
	if s.done {
		return s.decision
	}
	if room := s.e.full - s.bank.Len(); len(points) > room {
		points = points[:room]
	}
	s.bank.Extend(points)
	best, _ := s.bank.Min()
	if best < 0 {
		return Decision{}
	}
	label := s.e.train.Instances[best].Label
	if s.e.mpl[best] <= s.bank.Len() {
		s.done = true
		s.decision = Decision{Label: label, Ready: true}
		return s.decision
	}
	return Decision{Label: label, Ready: false}
}

// nearestNeighbor is the package's one raw-distance 1NN scan: the index
// and label of the instance of set whose first len(q) points lie nearest
// q, skipping index skip (-1 for none; a training instance's own index for
// a leave-one-out scan). Distances come from ts.SquaredEuclideanEA with the
// best-so-far as cutoff, and the comparison is strict, so ties break
// toward the lowest index. It returns (-1, 0) when no distance is below
// +Inf.
func nearestNeighbor(set *dataset.Dataset, q []float64, skip int) (index, label int) {
	best, bestD := -1, math.Inf(1)
	for i, in := range set.Instances {
		if i == skip {
			continue
		}
		if d, ok := ts.SquaredEuclideanEA(q, in.Series[:len(q)], bestD); ok && d < bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, set.Instances[best].Label
}

// softminPosterior estimates P(class) for a prefix from the nearest
// per-class raw-prefix distances (shared by several flawed models).
func softminPosterior(train *dataset.Dataset, prefix []float64) map[int]float64 {
	return softminPosteriorT(train, prefix, 1)
}

// softminPosteriorT is softminPosterior with a sharpness factor: P(c) ∝
// exp(-sharpness · d_c / mean(d)). sharpness 1 gives a conservative,
// well-spread posterior; larger values let confident models actually reach
// high thresholds.
func softminPosteriorT(train *dataset.Dataset, prefix []float64, sharpness float64) map[int]float64 {
	l := len(prefix)
	if l < 1 || l > train.SeriesLen() {
		return nil
	}
	d2 := make([]float64, train.Len())
	for i, in := range train.Instances {
		d2[i] = ts.SquaredEuclidean(prefix, in.Series[:l])
	}
	return softminFromSquaredDists(train, train.Labels(), d2, sharpness)
}

// softminFromSquaredDists converts per-training-instance squared prefix
// distances into the softmin class posterior. labels must be the dataset's
// sorted label set (train.Labels(), which hot paths cache). It is a map
// view over the dense posterior core (labelIndex reductions +
// softminDenseInto), the same core the allocation-free incremental sessions
// use directly, so the pure and incremental paths produce bit-identical
// posteriors by construction.
func softminFromSquaredDists(train *dataset.Dataset, labels []int, d2 []float64, sharpness float64) map[int]float64 {
	nearest := make([]float64, len(labels))
	for c := range nearest {
		nearest[c] = math.Inf(1)
	}
	for i, in := range train.Instances {
		c := sort.SearchInts(labels, in.Label)
		if d2[i] < nearest[c] {
			nearest[c] = d2[i]
		}
	}
	for c, d := range nearest {
		nearest[c] = math.Sqrt(d)
	}
	post := make([]float64, len(labels))
	softminDenseInto(nearest, sharpness, post)
	out := make(map[int]float64, len(labels))
	for c, lab := range labels {
		out[lab] = post[c]
	}
	return out
}

// maxPosterior returns the highest-probability label of a posterior,
// breaking exact ties toward the smallest label so that every caller —
// pure or incremental — resolves them identically.
func maxPosterior(post map[int]float64) (label int, p float64) {
	first := true
	for lab, pr := range post {
		if first || pr > p || (pr == p && lab < label) {
			label, p = lab, pr
			first = false
		}
	}
	return label, p
}

func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	sa := append([]int32(nil), a...)
	sb := append([]int32(nil), b...)
	sortInt32(sa)
	sortInt32(sb)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// containsAll reports whether set a contains every element of b.
func containsAll(a, b []int32) bool {
	if len(b) == 0 {
		return true
	}
	if len(a) < len(b) {
		return false
	}
	sa := append([]int32(nil), a...)
	sortInt32(sa)
	for _, v := range b {
		idx := sort.Search(len(sa), func(i int) bool { return sa[i] >= v })
		if idx == len(sa) || sa[idx] != v {
			return false
		}
	}
	return true
}

func sortInt32(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
