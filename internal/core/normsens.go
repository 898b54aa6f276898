package core

import (
	"errors"
	"fmt"
	"math/rand"

	"etsc/internal/dataset"
	"etsc/internal/etsc"
)

// NormSensitivity is the result of the §4 / Table 1 probe for one
// algorithm: accuracy on UCR-normalized test data vs accuracy on the same
// data after each exemplar is shifted by a uniform offset in
// [-MaxShift, +MaxShift] — a perturbation "approximately equivalent to
// tilting the camera randomly up or down by about 1.9 degrees".
type NormSensitivity struct {
	Algorithm             string
	MaxShift              float64
	NormalizedAccuracy    float64
	DenormalizedAccuracy  float64
	NormalizedEarliness   float64
	DenormalizedEarliness float64
}

// Drop returns the accuracy lost to denormalization.
func (n NormSensitivity) Drop() float64 {
	return n.NormalizedAccuracy - n.DenormalizedAccuracy
}

// Brittle reports whether the algorithm loses more than tol accuracy — the
// signature of a model "assuming that [a value] is z-normalized based on
// other values that do not yet exist".
func (n NormSensitivity) Brittle(tol float64) bool { return n.Drop() > tol }

// MeasureNormSensitivity evaluates one trained early classifier on the test
// set twice: as-is (UCR-normalized) and with per-exemplar offsets drawn
// from rng in [-maxShift, maxShift]. step is the prefix increment fed to
// the classifier.
func MeasureNormSensitivity(c etsc.EarlyClassifier, test *dataset.Dataset, rng *rand.Rand, maxShift float64, step int) (NormSensitivity, error) {
	return MeasureNormSensitivityParallel(c, test, rng, maxShift, step, 1)
}

// MeasureNormSensitivityParallel is MeasureNormSensitivity with both
// evaluations fanned across a worker pool of the given size (<= 0 means
// one worker per CPU). rng is consumed only by the serial Denormalize call
// between the two evaluations — never inside the pool — so the measurement
// is identical for every worker count.
func MeasureNormSensitivityParallel(c etsc.EarlyClassifier, test *dataset.Dataset, rng *rand.Rand, maxShift float64, step, workers int) (NormSensitivity, error) {
	if c == nil {
		return NormSensitivity{}, errors.New("core: nil classifier")
	}
	if test == nil || test.Len() == 0 {
		return NormSensitivity{}, errors.New("core: empty test set")
	}
	if maxShift <= 0 {
		return NormSensitivity{}, fmt.Errorf("core: maxShift must be positive, got %v", maxShift)
	}
	normal, err := etsc.EvaluateParallel(c, test, step, workers)
	if err != nil {
		return NormSensitivity{}, err
	}
	denorm, err := etsc.EvaluateParallel(c, test.Denormalize(rng, maxShift), step, workers)
	if err != nil {
		return NormSensitivity{}, err
	}
	return NormSensitivity{
		Algorithm:             c.Name(),
		MaxShift:              maxShift,
		NormalizedAccuracy:    normal.Accuracy(),
		DenormalizedAccuracy:  denorm.Accuracy(),
		NormalizedEarliness:   normal.MeanEarliness(),
		DenormalizedEarliness: denorm.MeanEarliness(),
	}, nil
}
