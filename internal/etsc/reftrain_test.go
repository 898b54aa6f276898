package etsc

import (
	"errors"
	"fmt"
	"math"

	"etsc/internal/dataset"
)

// The reference trainers below are the serial trainers each production
// trainer replaced: every one recomputes its own distances from the raw
// training set instead of reading a TrainContext. TestTrainEquivalenceBattery
// pins each production trainer against its reference, so no other test
// should train through them.

// refTrainECTS is the serial reference for trainECTS.
func refTrainECTS(train *dataset.Dataset, relaxed bool, minSupport int) (*ECTS, error) {
	if err := checkTrain("ECTS", train); err != nil {
		return nil, err
	}
	n := train.Len()
	L := train.SeriesLen()

	// Incremental pairwise squared distances give the 1NN of every
	// instance at every prefix length in O(n²·L).
	nn := make([][]int32, L+1) // nn[l][i] = index of i's 1NN at prefix length l
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
	}
	for l := 1; l <= L; l++ {
		for i := 0; i < n; i++ {
			xi := train.Instances[i].Series[l-1]
			row := d2[i]
			for j := i + 1; j < n; j++ {
				d := xi - train.Instances[j].Series[l-1]
				row[j] += d * d
			}
		}
		nn[l] = ectsNearestAt(n, func(i, j int) float64 {
			if i < j {
				return d2[i][j]
			}
			return d2[j][i]
		})
	}
	return ectsFromNN(train, nn, relaxed, minSupport), nil
}

// refTrainECDIRE is the serial reference for trainECDIRE.
func refTrainECDIRE(train *dataset.Dataset, cfg ECDIREConfig) (*ECDIRE, error) {
	cfg, err := ecdireCheck(train, cfg)
	if err != nil {
		return nil, err
	}
	e := ecdireSetup(train, cfg)
	e.fit(func(i, l int) map[int]float64 {
		return e.refLOOPosterior(train.Instances[i].Series[:l], i)
	}, 1)
	return e, nil
}

// refLOOPosterior is the softmin posterior over raw prefixes with instance
// skip excluded.
func (e *ECDIRE) refLOOPosterior(prefix []float64, skip int) map[int]float64 {
	l := len(prefix)
	nearest := map[int]float64{}
	for i, in := range e.train.Instances {
		if i == skip {
			continue
		}
		d := 0.0
		for j := 0; j < l; j++ {
			diff := prefix[j] - in.Series[j]
			d += diff * diff
		}
		d = math.Sqrt(d)
		if cur, ok := nearest[in.Label]; !ok || d < cur {
			nearest[in.Label] = d
		}
	}
	return softminFromNearest(nearest, e.sharp)
}

// refTrainCostAware is the serial reference for trainCostAware.
func refTrainCostAware(train *dataset.Dataset, cfg CostAwareConfig) (*CostAware, error) {
	c, err := costAwareSetup(train, cfg)
	if err != nil {
		return nil, err
	}
	c.fitErrAt(func(i, l int) int {
		_, label := nearestNeighbor(train, train.Instances[i].Series[:l], i)
		return label
	}, 1)
	return c, nil
}

// refTrainTEASER is the serial reference for trainTEASER.
func refTrainTEASER(train *dataset.Dataset, cfg TEASERConfig) (*TEASER, error) {
	t, cfg, err := teaserSetup(train, cfg)
	if err != nil {
		return nil, err
	}
	for _, l := range t.lengths {
		set, err := train.Truncate(l, t.ZNormPrefix)
		if err != nil {
			return nil, err
		}
		t.addSnapshot(set)
	}
	t.fitMasters(func(si, i int) (int, float64, float64) {
		set := t.slaveSet(si)
		return t.slavePosterior(si, set.Instances[i].Series, i)
	}, cfg.GateSigma, 1)
	return t, nil
}

// refTrainFixedPrefix is the serial reference for trainFixedPrefix.
func refTrainFixedPrefix(train *dataset.Dataset, at int, znorm bool) (*FixedPrefix, error) {
	if train == nil || train.Len() == 0 {
		return nil, errors.New("etsc: FixedPrefix needs training data")
	}
	if at < 1 || at > train.SeriesLen() {
		return nil, fmt.Errorf("etsc: FixedPrefix length %d out of range 1..%d", at, train.SeriesLen())
	}
	pre, err := train.Truncate(at, znorm)
	if err != nil {
		return nil, err
	}
	return &FixedPrefix{At: at, ZNorm: znorm, train: train, prefix: pre, full: train.SeriesLen()}, nil
}
