package etsc

import (
	"fmt"
	"math"

	"etsc/internal/dataset"
	"etsc/internal/par"
)

// CostAware implements the cost-based optimization framing of early
// classification (Dachraoui et al. ECML-PKDD 2015; Tavenard & Malinowski
// ECML-PKDD 2016; Achenchabe et al. 2020) — the "handful [of papers that]
// incorporate some awareness of misclassification costs" the paper credits
// in §2.1 and §6. The decision criterion trades a misclassification cost
// against a linear delay cost:
//
//	cost(decide at l) = MisclassCost · ê(l) + DelayCost · l/L
//
// where ê(l) is the expected error at prefix length l, estimated from the
// leave-one-out error curve on training prefixes and adapted to the
// current instance by its posterior margin. The classifier commits at the
// first snapshot whose cost-to-decide-now is no worse than the projected
// cost of deciding at any later snapshot (the non-myopic rule).
//
// Like the published methods it operates on raw prefix values (the §4
// flaw); its evaluations, too, were confined to UCR data — the paper's
// point is precisely that "they only test on UCR datasets and never
// estimate costs for any real-world applications".
type CostAware struct {
	MisclassCost float64
	DelayCost    float64
	Snapshots    int

	train   *dataset.Dataset
	lengths []int
	errAt   []float64 // LOO error at each snapshot
	full    int
}

// CostAwareConfig controls training.
type CostAwareConfig struct {
	MisclassCost float64 // cost of a wrong final decision (default 1)
	DelayCost    float64 // cost of waiting the entire exemplar (default 0.5)
	Snapshots    int     // snapshot count (default 20)
}

// DefaultCostAwareConfig balances error against delay so that decisions
// land neither at the first nor the last snapshot on typical data.
func DefaultCostAwareConfig() CostAwareConfig {
	return CostAwareConfig{MisclassCost: 1, DelayCost: 0.5, Snapshots: 20}
}

// trainCostAware is the CostAware trainer behind the registry: the
// per-snapshot leave-one-out 1NN error curve — the O(snapshots·n²·l) bulk
// of training — reads the context's memoized raw prefix-distance matrix
// and fans across its pool. The trained model is identical for any worker
// count: matrix entries are the exact in-order partial sums of a serial
// scan, the argmin is strict and first-wins, and the error tallies are
// assembled in instance order.
func trainCostAware(tc *TrainContext, cfg CostAwareConfig) (*CostAware, error) {
	c, err := costAwareSetup(tc.train, cfg)
	if err != nil {
		return nil, err
	}
	if len(c.lengths) > 0 {
		if err := tc.m.Ensure(c.lengths[len(c.lengths)-1]); err != nil {
			return nil, err
		}
	}
	c.fitErrAt(func(i, l int) int {
		best, bestD := 0, math.Inf(1)
		for j, in := range tc.train.Instances {
			if j == i {
				continue
			}
			if d := tc.m.D2(i, j, l); d < bestD {
				best, bestD = in.Label, d
			}
		}
		return best
	}, tc.workers)
	return c, nil
}

// costAwareSetup validates the configuration and builds the untrained
// model with its snapshot lengths.
func costAwareSetup(train *dataset.Dataset, cfg CostAwareConfig) (*CostAware, error) {
	if err := checkTrain("CostAware", train); err != nil {
		return nil, err
	}
	if cfg.MisclassCost <= 0 {
		return nil, fmt.Errorf("etsc: CostAware MisclassCost must be positive, got %v", cfg.MisclassCost)
	}
	if cfg.DelayCost < 0 {
		return nil, fmt.Errorf("etsc: CostAware DelayCost must be non-negative, got %v", cfg.DelayCost)
	}
	if cfg.Snapshots < 2 {
		cfg.Snapshots = 2
	}
	return &CostAware{
		MisclassCost: cfg.MisclassCost,
		DelayCost:    cfg.DelayCost,
		Snapshots:    cfg.Snapshots,
		train:        train,
		lengths:      snapshotLengths(train.SeriesLen(), cfg.Snapshots),
		full:         train.SeriesLen(),
	}, nil
}

// fitErrAt learns the leave-one-out 1NN error on raw prefixes at each
// snapshot. nearest(i, l) must return the held-out 1NN label of training
// instance i at prefix length l; calls for distinct i are fanned across
// the pool, and the error counts are tallied in instance order.
func (c *CostAware) fitErrAt(nearest func(i, l int) int, workers int) {
	for _, l := range c.lengths {
		labels := make([]int, c.train.Len())
		par.Do(c.train.Len(), workers, func(i int) {
			labels[i] = nearest(i, l)
		})
		errs := 0
		for i, in := range c.train.Instances {
			if labels[i] != in.Label {
				errs++
			}
		}
		c.errAt = append(c.errAt, float64(errs)/float64(c.train.Len()))
	}
}

// ExpectedCost returns the instance-adapted expected cost of deciding at
// snapshot k for a prefix with the given posterior margin in [0,1]: high
// margins discount the population error curve.
func (c *CostAware) ExpectedCost(k int, margin float64) float64 {
	if margin < 0 {
		margin = 0
	}
	if margin > 1 {
		margin = 1
	}
	adapted := c.errAt[k] * (1 - 0.5*margin)
	return c.MisclassCost*adapted + c.DelayCost*float64(c.lengths[k])/float64(c.full)
}

// Name implements EarlyClassifier.
func (c *CostAware) Name() string {
	return fmt.Sprintf("CostAware(Cm=%g,Cd=%g)", c.MisclassCost, c.DelayCost)
}

// FullLength implements EarlyClassifier.
func (c *CostAware) FullLength() int { return c.full }

// ClassifyPrefix implements EarlyClassifier with the non-myopic rule.
func (c *CostAware) ClassifyPrefix(prefix []float64) Decision {
	k := snapshotAt(c.lengths, len(prefix))
	if k < 0 {
		return Decision{}
	}
	post := softminPosteriorT(c.train, prefix[:c.lengths[k]], 3)
	label, margin := topAndMargin(post)
	now := c.ExpectedCost(k, margin)
	// Project the cost of deciding at each later snapshot, assuming the
	// margin holds (the population curve dominates in practice).
	for j := k + 1; j < len(c.lengths); j++ {
		if c.ExpectedCost(j, margin) < now {
			return Decision{Label: label, Ready: false}
		}
	}
	return Decision{Label: label, Ready: true}
}

// ForcedLabel implements EarlyClassifier.
func (c *CostAware) ForcedLabel(series []float64) int {
	_, label := nearestNeighbor(c.train, series[:min(len(series), c.full)], -1)
	return label
}

// PosteriorPrefix implements PosteriorProvider.
func (c *CostAware) PosteriorPrefix(prefix []float64) map[int]float64 {
	return softminPosteriorT(c.train, prefix, 3)
}

// topAndMargin extracts the MAP label and top-two margin from a posterior.
// Labels are scanned in sorted order so exact probability ties break toward
// the smallest label in every caller — randomized map order here would let
// two trainings of the same set disagree, which the
// byte-identical train-equivalence contract cannot tolerate.
func topAndMargin(post map[int]float64) (label int, margin float64) {
	best, second := -1.0, -1.0
	for _, lab := range sortedLabels(post) {
		p := post[lab]
		if p > best {
			second = best
			best = p
			label = lab
		} else if p > second {
			second = p
		}
	}
	if second < 0 {
		second = 0
	}
	return label, best - second
}
