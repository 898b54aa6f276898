// Package classify implements the classic time series classification
// substrate: k-nearest-neighbour classifiers under Euclidean and DTW
// distances, leave-one-out cross-validation, confusion matrices, and the
// per-prefix-length evaluation (with correct re-z-normalization of
// truncations) that drives the paper's Fig. 9.
package classify

import (
	"errors"
	"fmt"
	"sort"

	"etsc/internal/dataset"
	"etsc/internal/par"
	"etsc/internal/ts"
)

// Distance measures dissimilarity between equal-length series.
type Distance interface {
	// Dist returns the distance between a and b.
	Dist(a, b []float64) float64
	// Name identifies the measure in reports.
	Name() string
}

// EuclideanDistance is plain Euclidean distance (inputs assumed comparable,
// e.g. both z-normalized — or not, which is the paper's Table 1 trap).
type EuclideanDistance struct{}

// Dist implements Distance.
func (EuclideanDistance) Dist(a, b []float64) float64 { return ts.Euclidean(a, b) }

// Name implements Distance.
func (EuclideanDistance) Name() string { return "ED" }

// ZNormEuclideanDistance z-normalizes both inputs before measuring; this is
// the distance a *correct* (whole-object) pipeline uses.
type ZNormEuclideanDistance struct{}

// Dist implements Distance.
func (ZNormEuclideanDistance) Dist(a, b []float64) float64 { return ts.ZNormEuclidean(a, b) }

// Name implements Distance.
func (ZNormEuclideanDistance) Name() string { return "zED" }

// DTWDistance is Dynamic Time Warping with a Sakoe-Chiba band.
type DTWDistance struct {
	Radius int // band radius in points; < 0 = unconstrained
}

// Dist implements Distance.
func (d DTWDistance) Dist(a, b []float64) float64 { return ts.DTW(a, b, d.Radius) }

// Name implements Distance.
func (d DTWDistance) Name() string { return fmt.Sprintf("DTW(r=%d)", d.Radius) }

// Neighbor is one scored training instance.
type Neighbor struct {
	Index int
	Label int
	Dist  float64
}

// KNN is a k-nearest-neighbour classifier over a training dataset.
type KNN struct {
	K        int
	Distance Distance
	train    *dataset.Dataset
}

// NewKNN builds a KNN classifier. k must be >= 1.
func NewKNN(train *dataset.Dataset, k int, d Distance) (*KNN, error) {
	if train == nil || train.Len() == 0 {
		return nil, errors.New("classify: empty training set")
	}
	if k < 1 {
		return nil, fmt.Errorf("classify: k must be >= 1, got %d", k)
	}
	if d == nil {
		d = EuclideanDistance{}
	}
	return &KNN{K: k, Distance: d, train: train}, nil
}

// Train returns the underlying training dataset.
func (c *KNN) Train() *dataset.Dataset { return c.train }

// Neighbors returns the k nearest training instances to query, closest
// first. skip, if >= 0, excludes that training index (for leave-one-out).
func (c *KNN) Neighbors(query []float64, skip int) []Neighbor {
	ns := make([]Neighbor, 0, c.train.Len())
	for i, in := range c.train.Instances {
		if i == skip {
			continue
		}
		ns = append(ns, Neighbor{Index: i, Label: in.Label, Dist: c.Distance.Dist(query, in.Series)})
	}
	sort.Slice(ns, func(a, b int) bool { return ns[a].Dist < ns[b].Dist })
	if len(ns) > c.K {
		ns = ns[:c.K]
	}
	return ns
}

// Classify returns the majority label among the k nearest neighbours
// (ties broken toward the nearer neighbour's label).
func (c *KNN) Classify(query []float64) int {
	label, _ := c.ClassifyConfidence(query)
	return label
}

// ClassifyConfidence returns the predicted label and the fraction of the k
// neighbours voting for it.
func (c *KNN) ClassifyConfidence(query []float64) (int, float64) {
	ns := c.Neighbors(query, -1)
	if len(ns) == 0 {
		return 0, 0
	}
	votes := map[int]int{}
	for _, n := range ns {
		votes[n.Label]++
	}
	best, bestVotes := ns[0].Label, 0
	for _, n := range ns { // iterate in nearness order for tie-breaking
		if v := votes[n.Label]; v > bestVotes {
			best, bestVotes = n.Label, v
		}
	}
	return best, float64(bestVotes) / float64(len(ns))
}

// Evaluation summarizes classifier performance on a test set.
type Evaluation struct {
	Correct, Total int
	Confusion      ConfusionMatrix
}

// Accuracy returns Correct/Total (0 when empty).
func (e Evaluation) Accuracy() float64 {
	if e.Total == 0 {
		return 0
	}
	return float64(e.Correct) / float64(e.Total)
}

// ErrorRate returns 1 - Accuracy.
func (e Evaluation) ErrorRate() float64 { return 1 - e.Accuracy() }

// Evaluate classifies every instance of test and tallies the results.
func (c *KNN) Evaluate(test *dataset.Dataset) Evaluation {
	return c.EvaluateParallel(test, 1)
}

// EvaluateParallel is Evaluate with the per-instance classifications fanned
// across a worker pool of the given size (<= 0 means one worker per CPU).
// Classification is read-only on the model, and the tally is assembled from
// per-instance predictions in instance order, so the result is identical
// for every worker count.
func (c *KNN) EvaluateParallel(test *dataset.Dataset, workers int) Evaluation {
	preds := make([]int, test.Len())
	par.Do(test.Len(), workers, func(i int) {
		preds[i] = c.Classify(test.Instances[i].Series)
	})
	ev := Evaluation{Confusion: NewConfusionMatrix()}
	for i, in := range test.Instances {
		ev.Total++
		if preds[i] == in.Label {
			ev.Correct++
		}
		ev.Confusion.Add(in.Label, preds[i])
	}
	return ev
}

// LeaveOneOut runs leave-one-out cross-validation of a 1NN classifier with
// the given distance over d, returning the evaluation.
func LeaveOneOut(d *dataset.Dataset, dist Distance) Evaluation {
	return LeaveOneOutParallel(d, dist, 1)
}

// LeaveOneOutParallel is LeaveOneOut with the held-out scans fanned across
// a worker pool (<= 0 means one worker per CPU); each held-out instance's
// nearest-neighbour scan is independent, so the evaluation is identical for
// every worker count.
func LeaveOneOutParallel(d *dataset.Dataset, dist Distance, workers int) Evaluation {
	c := &KNN{K: 1, Distance: dist, train: d}
	preds := make([]int, d.Len())
	scored := make([]bool, d.Len())
	par.Do(d.Len(), workers, func(i int) {
		if ns := c.Neighbors(d.Instances[i].Series, i); len(ns) > 0 {
			preds[i], scored[i] = ns[0].Label, true
		}
	})
	ev := Evaluation{Confusion: NewConfusionMatrix()}
	for i, in := range d.Instances {
		if !scored[i] {
			continue
		}
		ev.Total++
		if preds[i] == in.Label {
			ev.Correct++
		}
		ev.Confusion.Add(in.Label, preds[i])
	}
	return ev
}

// PrefixSweepPoint is one point of the Fig. 9 curve.
type PrefixSweepPoint struct {
	PrefixLen int
	ErrorRate float64
}

// PrefixSweep evaluates 1NN accuracy using only the first n points of every
// train and test exemplar, for n = from..to step by. When renormalize is
// true, each truncation is re-z-normalized — the correct handling the paper
// applies ("we are correctly z-normalizing the truncated data, see Table 1").
func PrefixSweep(train, test *dataset.Dataset, from, to, by int, renormalize bool, dist Distance) ([]PrefixSweepPoint, error) {
	return PrefixSweepParallel(train, test, from, to, by, renormalize, dist, 1)
}

// PrefixSweepParallel is PrefixSweep with the per-length evaluations fanned
// across a worker pool (<= 0 means one worker per CPU). Each prefix length
// is an independent truncate-train-evaluate unit writing its own sweep
// point, so the curve is identical for every worker count.
func PrefixSweepParallel(train, test *dataset.Dataset, from, to, by int, renormalize bool, dist Distance, workers int) ([]PrefixSweepPoint, error) {
	if from < 1 || to > train.SeriesLen() || from > to || by < 1 {
		return nil, fmt.Errorf("classify: PrefixSweep range %d..%d step %d invalid for length %d",
			from, to, by, train.SeriesLen())
	}
	if train.SeriesLen() != test.SeriesLen() {
		return nil, fmt.Errorf("classify: train length %d != test length %d", train.SeriesLen(), test.SeriesLen())
	}
	lengths := make([]int, 0, (to-from)/by+1)
	for n := from; n <= to; n += by {
		lengths = append(lengths, n)
	}
	out := make([]PrefixSweepPoint, len(lengths))
	errs := make([]error, len(lengths))
	par.Do(len(lengths), workers, func(i int) {
		n := lengths[i]
		trn, err := train.Truncate(n, renormalize)
		if err != nil {
			errs[i] = err
			return
		}
		tst, err := test.Truncate(n, renormalize)
		if err != nil {
			errs[i] = err
			return
		}
		knn, err := NewKNN(trn, 1, dist)
		if err != nil {
			errs[i] = err
			return
		}
		ev := knn.Evaluate(tst)
		out[i] = PrefixSweepPoint{PrefixLen: n, ErrorRate: ev.ErrorRate()}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BestPrefix returns the sweep point with the lowest error (earliest wins
// ties) and the point at full length.
func BestPrefix(points []PrefixSweepPoint) (best, full PrefixSweepPoint, err error) {
	if len(points) == 0 {
		return best, full, errors.New("classify: empty sweep")
	}
	best = points[0]
	for _, p := range points[1:] {
		if p.ErrorRate < best.ErrorRate {
			best = p
		}
	}
	full = points[len(points)-1]
	return best, full, nil
}
