package etsc

import (
	"errors"
	"fmt"
	"sync"

	"etsc/internal/dataset"
	"etsc/internal/ts"
)

// TrainContext is the training substrate for one training set: a memoized
// ts.PrefixDistMatrix (raw and z-normalized pairwise prefix distances,
// materialized lazily) plus a cache of truncated prefix datasets. It is
// the package's one training path: ECTS reads its per-length pairwise
// sweep from the matrix, ECDIRE and CostAware their per-snapshot LOO
// distance scans, TEASER its per-snapshot z-normalized truncations and LOO
// scans, FixedPrefix its prepared prefixes. Training the paper's whole
// algorithm suite on one shared context pays the dominant O(n²·L) distance
// work once, in parallel, instead of once per algorithm.
//
// Train(spec, train) trains through a private one-worker context;
// Train(spec, nil, WithTrainContext(ctx)) shares ctx with every other
// trainer on it. TestTrainEquivalenceBattery pins each trainer against a
// serial reference that recomputes its own distances, for any worker
// count.
//
// Ownership and immutability: the context must be built over a training
// set that is never mutated afterwards. Cached prefix datasets and the
// matrix are shared across trainers and must be treated read-only; the
// trained models themselves hold references into them. Lazy materialization
// is internally synchronized, so trainers may be built from the same
// context sequentially or concurrently (each context-driven trainer
// materializes what it needs before fanning out lock-free reads).
type TrainContext struct {
	train   *dataset.Dataset
	workers int
	m       *ts.PrefixDistMatrix

	mu    sync.Mutex
	trunc map[truncKey]*dataset.Dataset
}

type truncKey struct {
	l      int
	renorm bool
}

// NewTrainContext builds a context over train. workers bounds every pool
// the context and its trainers use (<= 0 means one worker per CPU). The
// matrix starts empty: nothing is precomputed until a trainer asks, so a
// context is cheap to create even when only small trainers use it.
func NewTrainContext(train *dataset.Dataset, workers int) (*TrainContext, error) {
	if train == nil || train.Len() == 0 {
		return nil, errors.New("etsc: TrainContext needs training data")
	}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("etsc: TrainContext: %w", err)
	}
	m, err := ts.NewPrefixDistMatrix(seriesRefs(train), workers)
	if err != nil {
		return nil, fmt.Errorf("etsc: TrainContext: %w", err)
	}
	return &TrainContext{
		train:   train,
		workers: workers,
		m:       m,
		trunc:   map[truncKey]*dataset.Dataset{},
	}, nil
}

// checkTrain is every trainer's training-set check: at least two instances,
// and a set that passes dataset.Validate. algo names the trainer in the
// error.
func checkTrain(algo string, train *dataset.Dataset) error {
	if train == nil || train.Len() < 2 {
		return fmt.Errorf("etsc: %s needs at least 2 training instances", algo)
	}
	if err := train.Validate(); err != nil {
		return fmt.Errorf("etsc: %s: %w", algo, err)
	}
	return nil
}

// Train returns the training set the context is built over (read-only).
func (c *TrainContext) Train() *dataset.Dataset { return c.train }

// Workers returns the context's worker-pool bound.
func (c *TrainContext) Workers() int { return c.workers }

// Prefixes returns the cached truncation of the training set to its first l
// points, re-z-normalized when renorm is true — byte-identical to
// train.Truncate(l, renorm), computed at most once per (l, renorm). The
// returned dataset is shared across trainers and must not be mutated.
func (c *TrainContext) Prefixes(l int, renorm bool) (*dataset.Dataset, error) {
	key := truncKey{l, renorm}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.trunc[key]; d != nil {
		return d, nil
	}
	d, err := c.train.Truncate(l, renorm)
	if err != nil {
		return nil, err
	}
	c.trunc[key] = d
	return d, nil
}
