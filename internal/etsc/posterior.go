package etsc

import (
	"math"
	"sort"

	"etsc/internal/dataset"
)

// This file is the dense posterior core of the inference hot path. The
// per-class reductions every softmin-style posterior performs used to build
// a fresh map[int]float64 (sometimes several) per prefix step; here they
// run over preallocated []float64 slices indexed by the dataset's sorted
// label set, so a session-owned scratch makes each step allocation-free.
// Map-returning functions (the PosteriorProvider API, the training LOO
// paths) remain as thin views over the same cores, so the dense and map
// paths cannot diverge arithmetically: every sum iterates classes in sorted
// label order — exactly the order the map versions already pinned for
// bit-reproducibility — and ties keep breaking toward the smallest label.

// labelIndex maps a dataset's sorted label set to dense class indices.
// Classifiers build one at training time and share it with their sessions.
type labelIndex struct {
	labels  []int   // sorted distinct labels
	classOf []int32 // per training instance: index into labels
}

// newLabelIndex builds the index for d's instances.
func newLabelIndex(d *dataset.Dataset) *labelIndex {
	labels := d.Labels()
	li := &labelIndex{labels: labels, classOf: make([]int32, d.Len())}
	for i, in := range d.Instances {
		li.classOf[i] = int32(sort.SearchInts(labels, in.Label))
	}
	return li
}

// classes returns the number of distinct labels.
func (li *labelIndex) classes() int { return len(li.labels) }

// nearestFromSquaredDists fills nearest[c] with the per-class nearest
// distance sqrt(min d²) over the full distance vector (d2[i] is training
// instance i's squared distance). Scanning minimizes d² where the map path
// minimized sqrt(d²): sqrt is monotone and correctly rounded, so the
// minimal element and the stored value are identical.
func (li *labelIndex) nearestFromSquaredDists(d2 []float64, nearest []float64) {
	li.minSquaredDists(d2, nearest)
	for c, d := range nearest {
		nearest[c] = math.Sqrt(d)
	}
}

// minSquaredDists fills nearest[c] with class c's strict-< minimum of d2,
// +Inf when no element beats it (so a NaN never wins).
func (li *labelIndex) minSquaredDists(d2 []float64, nearest []float64) {
	for c := range nearest {
		nearest[c] = math.Inf(1)
	}
	for i, d := range d2 {
		c := li.classOf[i]
		if d < nearest[c] {
			nearest[c] = d
		}
	}
}

// softminDenseInto converts per-class nearest distances into the softmin
// posterior: post[c] = exp(-sharpness·nearest[c]/mean)/Σ, with the mean
// accumulated in class-index (= sorted-label) order. This is the one
// softmin implementation; softminFromSquaredDists and softminFromNearest
// are map views over it.
func softminDenseInto(nearest []float64, sharpness float64, post []float64) {
	mean := 0.0
	for _, d := range nearest {
		mean += d
	}
	mean /= float64(len(nearest))
	if mean < 1e-12 {
		mean = 1e-12
	}
	sum := 0.0
	for c, d := range nearest {
		p := math.Exp(-sharpness * d / mean)
		post[c] = p
		sum += p
	}
	for c := range post {
		post[c] /= sum
	}
}

// maxDense returns the highest-probability class index of a dense
// posterior. The ascending scan with a strict comparison breaks exact ties
// toward the smallest label, matching maxPosterior over the map view.
func maxDense(post []float64) (class int, p float64) {
	for c, pr := range post {
		if c == 0 || pr > p {
			class, p = c, pr
		}
	}
	return class, p
}

// topMarginDense converts per-class nearest distances into the slave-style
// decision triple: the MAP class index, its probability, and the top-two
// margin, using the unit-sharpness softmin exp(-d/mean). It is the dense
// core of nearestTopMargin and replicates its arithmetic exactly (mean and
// exponent sums in class-index order, normalize-while-scanning, strict >
// so ties break toward the smallest label). probs is scratch of the same
// length as nearest.
func topMarginDense(nearest, probs []float64) (class int, top, margin float64) {
	if len(nearest) == 0 {
		return 0, 0, 0
	}
	mean := 0.0
	for _, d := range nearest {
		mean += d
	}
	mean /= float64(len(nearest))
	if mean < 1e-12 {
		mean = 1e-12
	}
	sum := 0.0
	for c, d := range nearest {
		p := math.Exp(-d / mean)
		probs[c] = p
		sum += p
	}
	best, second := 0.0, 0.0
	for c, p := range probs {
		p /= sum
		if p > best {
			second = best
			best = p
			class = c
		} else if p > second {
			second = p
		}
	}
	return class, best, best - second
}
