// Package etsc implements the early-time-series-classification algorithms
// the paper evaluates, behind a single streaming-prefix interface:
//
//   - ECTS and RelaxedECTS (Xing et al., KAIS 2012) — 1NN with per-instance
//     minimum prediction lengths derived from reverse-nearest-neighbour
//     stability.
//   - EDSC with CHE and KDE threshold learning (Xing et al., SDM 2011) —
//     early distinctive shapelets.
//   - RelClass and its LDG variant (Parrish et al., JMLR 2013) —
//     Gaussian class-conditional models with a reliability threshold τ.
//   - TEASER (Schäfer & Leser, DMKD 2020) — per-snapshot slave classifiers
//     gated by a one-class master and a consistency counter. Per the
//     paper's footnote 2, TEASER z-normalizes each prefix itself and so
//     does not share the "peeking into the future" normalization flaw.
//   - ProbThreshold — the Fig. 3 (right) framing: emit as soon as the
//     class posterior exceeds a user threshold.
//   - FixedPrefix — the trivial baseline of Fig. 9: always classify at one
//     predetermined prefix length.
//
// All of ECTS/EDSC/RelClass/ProbThreshold deliberately operate on the raw
// incoming prefix values, exactly as the published methods do: they assume
// the incoming data is already z-normalized "based on other values that do
// not yet exist" (§4). That shared assumption is what the Table 1
// experiment exposes.
package etsc

import (
	"errors"
	"fmt"

	"etsc/internal/dataset"
)

// Decision is an early classifier's response to one prefix.
type Decision struct {
	Label int  // predicted label (meaningful only when Ready)
	Ready bool // true when the classifier commits to the prediction
}

// EarlyClassifier consumes incrementally arriving prefixes of a series and
// decides when it has seen enough to commit to a class label.
//
// ClassifyPrefix must be a pure function of the prefix: the harness may
// replay prefixes of different series in any order. Implementations that
// need per-stream state (e.g. TEASER's consistency counter) keep it in a
// native IncrementalSession. FullLength is the training exemplar length;
// the evaluation harness forces a decision at that length if the
// classifier never commits.
type EarlyClassifier interface {
	Name() string
	FullLength() int
	// ClassifyPrefix inspects the first len(prefix) points of an incoming
	// exemplar and either commits (Ready=true) or defers.
	ClassifyPrefix(prefix []float64) Decision
	// ForcedLabel returns the classifier's best guess given the complete
	// series; used when no early commitment was made.
	ForcedLabel(series []float64) int
}

// Outcome records how one test exemplar was classified.
type Outcome struct {
	Predicted int
	Actual    int
	Length    int  // prefix length at which the decision was made
	Forced    bool // true when the classifier never committed early
}

// Summary aggregates outcomes over a test set.
type Summary struct {
	Outcomes []Outcome
	Full     int // full exemplar length
}

// Accuracy is the fraction of correct predictions.
func (s Summary) Accuracy() float64 {
	if len(s.Outcomes) == 0 {
		return 0
	}
	correct := 0
	for _, o := range s.Outcomes {
		if o.Predicted == o.Actual {
			correct++
		}
	}
	return float64(correct) / float64(len(s.Outcomes))
}

// MeanEarliness is the mean of decision length / full length; lower is
// earlier.
func (s Summary) MeanEarliness() float64 {
	if len(s.Outcomes) == 0 || s.Full == 0 {
		return 0
	}
	sum := 0.0
	for _, o := range s.Outcomes {
		sum += float64(o.Length) / float64(s.Full)
	}
	return sum / float64(len(s.Outcomes))
}

// ForcedFraction is the fraction of exemplars where no early commitment was
// made and the decision fell back to the full-length classifier.
func (s Summary) ForcedFraction() float64 {
	if len(s.Outcomes) == 0 {
		return 0
	}
	n := 0
	for _, o := range s.Outcomes {
		if o.Forced {
			n++
		}
	}
	return float64(n) / float64(len(s.Outcomes))
}

// HarmonicMean returns the harmonic mean of accuracy and (1 - earliness),
// the combined quality score used in the TEASER paper.
func (s Summary) HarmonicMean() float64 {
	a := s.Accuracy()
	e := 1 - s.MeanEarliness()
	if a+e == 0 {
		return 0
	}
	return 2 * a * e / (a + e)
}

// RunOne feeds series to a fresh session of the classifier in increments
// of step points (decision opportunities at lengths step, 2·step, … up to
// c.FullLength()) and returns the decision point. If the classifier never
// commits it is forced at full length. Sessions come from OpenSession, so
// classifiers with native incremental sessions pay O(Δ) per opportunity.
func RunOne(c EarlyClassifier, series []float64, step int) (label, length int, forced bool) {
	if step < 1 {
		step = 1
	}
	full := c.FullLength()
	if full > len(series) {
		full = len(series)
	}
	sess := OpenSession(c)
	prev := 0
	for l := step; l <= full; l += step {
		d := sess.Extend(series[prev:l])
		prev = l
		if d.Ready {
			return d.Label, l, false
		}
	}
	return c.ForcedLabel(series[:full]), full, true
}

// checkEvaluate validates an evaluation's inputs.
func checkEvaluate(c EarlyClassifier, test *dataset.Dataset) error {
	if test == nil || test.Len() == 0 {
		return errors.New("etsc: empty test set")
	}
	if test.SeriesLen() < c.FullLength() {
		return fmt.Errorf("etsc: test series length %d shorter than model length %d",
			test.SeriesLen(), c.FullLength())
	}
	return nil
}

// Evaluate runs the classifier over every instance of test, feeding
// prefixes in increments of step points. EvaluateParallel fans the same
// work across a worker pool with identical output.
func Evaluate(c EarlyClassifier, test *dataset.Dataset, step int) (Summary, error) {
	return EvaluateParallel(c, test, step, 1)
}

// Trace records the evolving state of a classifier over one incoming
// exemplar — the data behind the paper's Fig. 3 plots.
type TracePoint struct {
	Length    int
	Posterior map[int]float64 // per-class probability if the model exposes one
	Decision  Decision
}

// PosteriorProvider is implemented by classifiers that can report a class
// posterior for a prefix (used for Fig. 3 traces).
type PosteriorProvider interface {
	PosteriorPrefix(prefix []float64) map[int]float64
}

// TraceRun replays series through the classifier, recording the posterior
// (when available) and decision at every step.
func TraceRun(c EarlyClassifier, series []float64, step int) []TracePoint {
	if step < 1 {
		step = 1
	}
	full := c.FullLength()
	if full > len(series) {
		full = len(series)
	}
	sess := OpenSession(c)
	pp, hasPost := c.(PosteriorProvider)
	var out []TracePoint
	committed := false
	prev := 0
	for l := step; l <= full; l += step {
		d := sess.Extend(series[prev:l])
		prev = l
		tp := TracePoint{Length: l}
		if !committed && d.Ready {
			tp.Decision = d
			committed = true
		}
		if hasPost {
			tp.Posterior = pp.PosteriorPrefix(series[:l])
		}
		out = append(out, tp)
	}
	return out
}
