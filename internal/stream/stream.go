// Package stream implements the deployment setting the paper argues every
// ETSC evaluation ignores: a continuous, unsegmented, un-normalized stream
// in which target patterns are rare and everything else is "spurious data
// that might be thousands of times more frequent than target data".
//
// It provides a candidate-window monitor that runs any etsc.EarlyClassifier
// over a stream, ground-truth matching that scores detections as true/false
// positives, a full-window verifier that models the "recant" step (the
// retraction the paper notes defeats the purpose of early classification),
// and a template monitor for threshold-based detectors (Fig. 8).
package stream

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"etsc/internal/dataset"
	"etsc/internal/etsc"
	"etsc/internal/par"
	"etsc/internal/ts"
)

// Detection is one alarm raised by a monitor.
type Detection struct {
	Start      int     // candidate window start in the stream
	DecisionAt int     // stream index at which the alarm fired (inclusive end)
	Label      int     // predicted class
	Earliness  float64 // fraction of the window seen when the alarm fired
	Recanted   bool    // set by Verify: the full window failed verification
}

// Monitor slides candidate windows over a stream and runs an early
// classifier on each. A new candidate is opened every Stride points; each
// candidate's session is fed newly arrived points every Step points until
// the classifier commits or the window completes without commitment.
//
// Candidate windows are independent, so Run fans them across a worker pool
// of Parallelism goroutines. Results are assembled in candidate order and
// suppression runs after assembly, so the output is byte-identical for
// every worker count (including 1) — parallelism changes wall-clock time
// only.
type Monitor struct {
	Classifier etsc.EarlyClassifier
	Stride     int // candidate spacing (0 defaults to 4; negative is an error)
	Step       int // prefix growth per classifier call (0 defaults to 4; negative is an error)
	// Suppress, when > 0, drops detections whose decision point is within
	// Suppress points of an earlier accepted detection with the same
	// label — debouncing, so one event does not fire dozens of alarms.
	// Negative values are an error.
	Suppress int
	// Parallelism bounds the candidate-window worker pool: 0 means one
	// worker per CPU, 1 runs serially; negative is an error.
	Parallelism int
}

// validate rejects nonsense configurations instead of silently "defaulting"
// them: a negative stride or step would loop forever or skip the stream,
// and a negative suppression radius has no meaning.
func (m *Monitor) validate() error {
	if m.Classifier == nil {
		return errors.New("stream: Monitor needs a classifier")
	}
	if m.Stride < 0 {
		return fmt.Errorf("stream: Monitor.Stride must be >= 0 (0 = default), got %d", m.Stride)
	}
	if m.Step < 0 {
		return fmt.Errorf("stream: Monitor.Step must be >= 0 (0 = default), got %d", m.Step)
	}
	if m.Suppress < 0 {
		return fmt.Errorf("stream: Monitor.Suppress must be >= 0 (0 = off), got %d", m.Suppress)
	}
	if m.Parallelism < 0 {
		return fmt.Errorf("stream: Monitor.Parallelism must be >= 0 (0 = NumCPU), got %d", m.Parallelism)
	}
	return nil
}

// Run scans the whole stream and returns detections in decision order.
func (m *Monitor) Run(stream []float64) ([]Detection, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	stride := m.Stride
	if stride == 0 {
		stride = 4
	}
	step := m.Step
	if step == 0 {
		step = 4
	}
	L := m.Classifier.FullLength()
	if L > len(stream) {
		return nil, fmt.Errorf("stream: stream length %d shorter than window %d", len(stream), L)
	}

	nCand := (len(stream)-L)/stride + 1
	results := make([]Detection, nCand)
	fired := make([]bool, nCand)
	par.Do(nCand, m.Parallelism, func(ci int) {
		start := ci * stride
		window := stream[start : start+L]
		sess := etsc.OpenSession(m.Classifier)
		prev := 0
		for l := step; l <= L; l += step {
			d := sess.Extend(window[prev:l])
			prev = l
			if d.Ready {
				results[ci] = Detection{
					Start:      start,
					DecisionAt: start + l - 1,
					Label:      d.Label,
					Earliness:  float64(l) / float64(L),
				}
				fired[ci] = true
				return
			}
		}
	})
	var dets []Detection
	for ci := range results {
		if fired[ci] {
			dets = append(dets, results[ci])
		}
	}
	if m.Suppress > 0 {
		dets = suppress(dets, m.Suppress)
	}
	return dets, nil
}

// suppress keeps the earliest detection in each same-label burst. The sort
// must be stable: same-DecisionAt ties stay in candidate-start order, the
// order Online emits them, so the streaming Suppressor accepts exactly the
// same detections.
func suppress(dets []Detection, radius int) []Detection {
	sort.SliceStable(dets, func(a, b int) bool { return dets[a].DecisionAt < dets[b].DecisionAt })
	return NewSuppressor(radius).Filter(dets)
}

// GroundTruth is one annotated true event in the stream.
type GroundTruth struct {
	Label      int
	Start, End int // half-open
}

// Tally scores detections against ground truth.
type Tally struct {
	TP, FP, FN int
	Recanted   int // detections whose full window failed verification
	Detections []Detection
	// LeadTime is, for each true positive, End-of-event minus decision
	// point: how much earlier than the event's end the alarm fired.
	LeadTimes []int
}

// Precision returns TP/(TP+FP); 1 if no detections.
func (t Tally) Precision() float64 {
	if t.TP+t.FP == 0 {
		return 1
	}
	return float64(t.TP) / float64(t.TP+t.FP)
}

// Recall returns TP/(TP+FN); 1 if no true events.
func (t Tally) Recall() float64 {
	if t.TP+t.FN == 0 {
		return 1
	}
	return float64(t.TP) / float64(t.TP+t.FN)
}

// FPPerTP returns the false-positive-per-true-positive ratio (+Inf when
// there are false positives but no true positives).
func (t Tally) FPPerTP() float64 {
	if t.TP == 0 {
		if t.FP == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(t.FP) / float64(t.TP)
}

// Match scores detections against truth. A detection is a true positive if
// its decision point falls inside a true event of the same label extended
// by tolerance points on both sides; each true event absorbs at most one
// true positive (extra hits on the same event are neither TPs nor FPs).
// Unclaimed true events count as false negatives.
func Match(dets []Detection, truth []GroundTruth, tolerance int) Tally {
	claimed := make([]bool, len(truth))
	used := make([]bool, len(dets))
	tally := Tally{Detections: dets}
	// Greedy in decision order: earliest detection claims the event.
	order := make([]int, len(dets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dets[order[a]].DecisionAt < dets[order[b]].DecisionAt })
	for _, di := range order {
		d := dets[di]
		for ti, tr := range truth {
			if claimed[ti] || tr.Label != d.Label {
				continue
			}
			if d.DecisionAt >= tr.Start-tolerance && d.DecisionAt < tr.End+tolerance {
				claimed[ti] = true
				used[di] = true
				tally.TP++
				tally.LeadTimes = append(tally.LeadTimes, tr.End-d.DecisionAt)
				break
			}
		}
	}
	for di, d := range dets {
		if used[di] {
			continue
		}
		// A duplicate hit on an already-claimed event is not an FP.
		dup := false
		for ti, tr := range truth {
			if claimed[ti] && tr.Label == d.Label &&
				d.DecisionAt >= tr.Start-tolerance && d.DecisionAt < tr.End+tolerance {
				dup = true
				break
			}
		}
		if !dup {
			tally.FP++
		}
	}
	for _, c := range claimed {
		if !c {
			tally.FN++
		}
	}
	for _, d := range dets {
		if d.Recanted {
			tally.Recanted++
		}
	}
	return tally
}

// Verifier decides, once a detection's full window is available, whether
// the early classification survives — the "recant" check. A rejected
// detection is exactly the situation the paper describes: an alarm that
// "must later be recanted", after the action has already been taken.
type Verifier interface {
	// Verify reports whether the completed window still supports label.
	Verify(window []float64, label int) bool
}

// NNVerifier accepts a window iff its z-normalized distance to the nearest
// training exemplar of the detected class is within a calibrated envelope
// (a quantile of leave-one-out nearest-neighbour distances per class).
type NNVerifier struct {
	train     *dataset.Dataset
	zn        [][]float64 // zn[i] is train.Instances[i].Series z-normalized once
	threshold map[int]float64
}

// NewNNVerifier calibrates per-class acceptance thresholds at the given
// quantile (e.g. 0.95) of within-class leave-one-out NN distances, scaled
// by slack (>= 1 loosens the envelope).
func NewNNVerifier(train *dataset.Dataset, quantile, slack float64) (*NNVerifier, error) {
	if train == nil || train.Len() < 2 {
		return nil, errors.New("stream: NNVerifier needs at least 2 training instances")
	}
	if quantile <= 0 || quantile > 1 {
		return nil, fmt.Errorf("stream: NNVerifier quantile %v out of (0,1]", quantile)
	}
	if slack < 1 {
		slack = 1
	}
	v := &NNVerifier{train: train, zn: make([][]float64, train.Len()), threshold: map[int]float64{}}
	for i, in := range train.Instances {
		v.zn[i] = ts.ZNorm(in.Series)
	}
	byClass := train.ByClass()
	for label, idx := range byClass {
		if len(idx) < 2 {
			v.threshold[label] = math.Inf(1)
			continue
		}
		var dists []float64
		for _, i := range idx {
			best := math.Inf(1)
			for _, j := range idx {
				if i == j {
					continue
				}
				d := ts.Euclidean(v.zn[i], v.zn[j])
				if d < best {
					best = d
				}
			}
			dists = append(dists, best)
		}
		sort.Float64s(dists)
		q := dists[int(float64(len(dists)-1)*quantile)]
		v.threshold[label] = q * slack
	}
	return v, nil
}

// Threshold returns the calibrated acceptance distance for label.
func (v *NNVerifier) Threshold(label int) float64 { return v.threshold[label] }

// Verify implements Verifier.
func (v *NNVerifier) Verify(window []float64, label int) bool {
	thr, ok := v.threshold[label]
	if !ok {
		return false
	}
	zw := ts.ZNorm(window)
	for i, in := range v.train.Instances {
		if in.Label != label || len(v.zn[i]) != len(zw) {
			continue
		}
		if ts.Euclidean(zw, v.zn[i]) <= thr {
			return true
		}
	}
	return false
}

// Verify applies the verifier to every detection's completed window,
// marking Recanted in place. Detections whose full window extends past the
// stream end are marked recanted (the pattern never completed).
func Verify(dets []Detection, stream []float64, windowLen int, v Verifier) {
	for i := range dets {
		end := dets[i].Start + windowLen
		if end > len(stream) {
			dets[i].Recanted = true
			continue
		}
		dets[i].Recanted = !v.Verify(stream[dets[i].Start:end], dets[i].Label)
	}
}
