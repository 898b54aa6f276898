package etsc

import (
	"fmt"
	"math"
	"sort"

	"etsc/internal/dataset"
	"etsc/internal/par"
)

// ECDIRE implements the "Early Classification framework for time series
// based on class DIscriminativeness and REliability" of Mori et al. (DMKD
// 2017) — reference [7] of the paper — at the architectural level. For
// each class it learns:
//
//   - a safe timestamp: the earliest snapshot at which the class's
//     leave-one-out recall reaches AccFraction of its full-length recall
//     (before that time the class may not be predicted at all), and
//   - a reliability threshold: the minimum posterior margin observed among
//     correct training predictions at the safe timestamp.
//
// A prediction is emitted when the MAP class's safe timestamp has passed
// and the current margin clears its reliability threshold.
//
// Like the other published methods it measures raw prefix values against
// z-normalized training data (the §4 flaw).
type ECDIRE struct {
	AccFraction float64
	Snapshots   int

	train   *dataset.Dataset
	lengths []int
	safeIdx map[int]int     // class -> snapshot index of the safe timestamp
	relThr  map[int]float64 // class -> margin threshold
	full    int
	sharp   float64
}

// ECDIREConfig controls training.
type ECDIREConfig struct {
	AccFraction float64 // fraction of full-length recall to require (default 0.9)
	Snapshots   int     // snapshot count (default 20)
	Sharpness   float64 // posterior sharpness (default 3)
}

// DefaultECDIREConfig matches the published setting of "reach (close to)
// the full-length accuracy before speaking".
func DefaultECDIREConfig() ECDIREConfig {
	return ECDIREConfig{AccFraction: 0.9, Snapshots: 20, Sharpness: 3}
}

// trainECDIRE is the ECDIRE trainer behind the registry: the per-snapshot
// leave-one-out distance scans — the dominant O(snapshots·n²·l) training
// cost — read the context's memoized raw prefix-distance matrix and fan
// across its pool, one held-out instance per index-owned slot. The trained
// model is identical for any worker count: matrix entries are the exact
// in-order partial sums of a serial scan, and the recall and margin
// tallies are assembled in instance order.
func trainECDIRE(c *TrainContext, cfg ECDIREConfig) (*ECDIRE, error) {
	cfg, err := ecdireCheck(c.train, cfg)
	if err != nil {
		return nil, err
	}
	e := ecdireSetup(c.train, cfg)
	if len(e.lengths) > 0 {
		if err := c.m.Ensure(e.lengths[len(e.lengths)-1]); err != nil {
			return nil, err
		}
	}
	// The softmin posterior of instance i's length-l raw prefix, with i
	// itself excluded.
	e.fit(func(i, l int) map[int]float64 {
		nearest := map[int]float64{}
		for j, in := range c.train.Instances {
			if j == i {
				continue
			}
			d := math.Sqrt(c.m.D2(i, j, l))
			if cur, ok := nearest[in.Label]; !ok || d < cur {
				nearest[in.Label] = d
			}
		}
		return softminFromNearest(nearest, e.sharp)
	}, c.workers)
	return e, nil
}

// ecdireCheck validates and normalizes the configuration.
func ecdireCheck(train *dataset.Dataset, cfg ECDIREConfig) (ECDIREConfig, error) {
	if err := checkTrain("ECDIRE", train); err != nil {
		return cfg, err
	}
	if cfg.AccFraction <= 0 || cfg.AccFraction > 1 {
		return cfg, fmt.Errorf("etsc: ECDIRE AccFraction must be in (0,1], got %v", cfg.AccFraction)
	}
	if cfg.Snapshots < 2 {
		cfg.Snapshots = 2
	}
	if cfg.Sharpness <= 0 {
		cfg.Sharpness = 3
	}
	return cfg, nil
}

// ecdireSetup builds the untrained model and its snapshot lengths.
func ecdireSetup(train *dataset.Dataset, cfg ECDIREConfig) *ECDIRE {
	return &ECDIRE{
		AccFraction: cfg.AccFraction,
		Snapshots:   cfg.Snapshots,
		train:       train,
		lengths:     snapshotLengths(train.SeriesLen(), cfg.Snapshots),
		safeIdx:     map[int]int{},
		relThr:      map[int]float64{},
		full:        train.SeriesLen(),
		sharp:       cfg.Sharpness,
	}
}

// snapshotLengths is the snapshot grid ECDIRE, CostAware and TEASER share:
// k·L/S for k = 1…S, skipping lengths under 3 points and repeats, so the
// grid ascends strictly.
func snapshotLengths(L, S int) []int {
	var lengths []int
	for k := 1; k <= S; k++ {
		l := k * L / S
		if l >= 3 && (len(lengths) == 0 || lengths[len(lengths)-1] != l) {
			lengths = append(lengths, l)
		}
	}
	return lengths
}

// snapshotAt returns the index of the largest snapshot length that fits a
// prefix of n points, or -1 when none does.
func snapshotAt(lengths []int, n int) int {
	return sort.SearchInts(lengths, n+1) - 1
}

// fit learns the safe timestamps and reliability thresholds from a
// leave-one-out posterior source. loo(i, l) must return the posterior of
// training instance i's length-l prefix with i excluded; calls for distinct
// i are fanned across the pool, and all tallies are assembled in instance
// order so the fit is identical for every worker count.
func (e *ECDIRE) fit(loo func(i, l int) map[int]float64, workers int) {
	train := e.train
	labels := train.Labels()
	classTotal := train.ClassCounts()
	recall := make([]map[int]float64, len(e.lengths))
	margins := make([]map[int][]float64, len(e.lengths))
	type looResult struct {
		label  int
		margin float64
	}
	for k, l := range e.lengths {
		results := make([]looResult, train.Len())
		par.Do(train.Len(), workers, func(i int) {
			label, margin := topAndMargin(loo(i, l))
			results[i] = looResult{label, margin}
		})
		correct := map[int]int{}
		margins[k] = map[int][]float64{}
		for i, in := range train.Instances {
			if results[i].label == in.Label {
				correct[in.Label]++
				margins[k][in.Label] = append(margins[k][in.Label], results[i].margin)
			}
		}
		recall[k] = map[int]float64{}
		for _, lab := range labels {
			recall[k][lab] = float64(correct[lab]) / float64(classTotal[lab])
		}
	}

	last := len(e.lengths) - 1
	for _, lab := range labels {
		target := e.AccFraction * recall[last][lab]
		idx := last
		for k := range e.lengths {
			if recall[k][lab] >= target {
				idx = k
				break
			}
		}
		e.safeIdx[lab] = idx
		// Reliability threshold: the lowest margin among correct training
		// predictions at the safe timestamp (0 when none were correct).
		thr := math.Inf(1)
		for _, m := range margins[idx][lab] {
			if m < thr {
				thr = m
			}
		}
		if math.IsInf(thr, 1) {
			thr = 0
		}
		e.relThr[lab] = thr
	}
}

// softminFromNearest converts per-class nearest distances into a
// normalized softmin posterior — a map view over the dense softmin core.
// All reductions iterate labels in sorted order: float sums over Go's
// randomized map order would differ in the last ulps between two otherwise
// identical trainings of a 3+-class set, which the byte-identical
// train-equivalence contract cannot tolerate.
func softminFromNearest(nearest map[int]float64, sharp float64) map[int]float64 {
	labels := sortedLabels(nearest)
	dense := make([]float64, len(labels))
	for c, lab := range labels {
		dense[c] = nearest[lab]
	}
	post := make([]float64, len(labels))
	softminDenseInto(dense, sharp, post)
	out := make(map[int]float64, len(labels))
	for c, lab := range labels {
		out[lab] = post[c]
	}
	return out
}

// sortedLabels returns the keys of a per-class map in ascending order.
func sortedLabels(m map[int]float64) []int {
	labels := make([]int, 0, len(m))
	for lab := range m {
		labels = append(labels, lab)
	}
	sort.Ints(labels)
	return labels
}

// SafeLength returns the learned safe timestamp (in points) for a class.
func (e *ECDIRE) SafeLength(label int) int {
	idx, ok := e.safeIdx[label]
	if !ok {
		return e.full
	}
	return e.lengths[idx]
}

// Name implements EarlyClassifier.
func (e *ECDIRE) Name() string {
	return fmt.Sprintf("ECDIRE(acc=%.2f)", e.AccFraction)
}

// FullLength implements EarlyClassifier.
func (e *ECDIRE) FullLength() int { return e.full }

// ClassifyPrefix implements EarlyClassifier.
func (e *ECDIRE) ClassifyPrefix(prefix []float64) Decision {
	k := snapshotAt(e.lengths, len(prefix))
	if k < 0 {
		return Decision{}
	}
	post := softminPosteriorT(e.train, prefix[:e.lengths[k]], e.sharp)
	label, margin := topAndMargin(post)
	safe, ok := e.safeIdx[label]
	if !ok {
		return Decision{Label: label, Ready: false}
	}
	ready := k >= safe && margin >= e.relThr[label]
	return Decision{Label: label, Ready: ready}
}

// ForcedLabel implements EarlyClassifier.
func (e *ECDIRE) ForcedLabel(series []float64) int {
	l := min(len(series), e.full)
	post := softminPosteriorT(e.train, series[:l], e.sharp)
	label, _ := topAndMargin(post)
	return label
}

// PosteriorPrefix implements PosteriorProvider.
func (e *ECDIRE) PosteriorPrefix(prefix []float64) map[int]float64 {
	return softminPosteriorT(e.train, prefix, e.sharp)
}
