package stats

import (
	"math"
	"sort"
)

// KDE is a one-dimensional Gaussian kernel density estimate. EDSC's KDE
// threshold-learning variant fits one of these to the target-class best
// match distances and one to the non-target distances, then places the
// shapelet threshold where the target density dominates.
type KDE struct {
	samples   []float64
	bandwidth float64
}

// NewKDE fits a Gaussian KDE to samples. bandwidth <= 0 selects Silverman's
// rule of thumb: 1.06 · σ · n^(-1/5) (with a floor to survive zero-variance
// samples). The sample slice is copied.
func NewKDE(samples []float64, bandwidth float64) *KDE {
	cp := append([]float64(nil), samples...)
	sort.Float64s(cp)
	if bandwidth <= 0 {
		var r Running
		r.AddAll(cp)
		bandwidth = 1.06 * r.Std() * math.Pow(float64(len(cp)), -0.2)
		if bandwidth < 1e-6 {
			bandwidth = 1e-6
		}
	}
	return &KDE{samples: cp, bandwidth: bandwidth}
}

// N returns the number of fitted samples.
func (k *KDE) N() int { return len(k.samples) }

// PDF evaluates the density estimate at x.
func (k *KDE) PDF(x float64) float64 {
	if len(k.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range k.samples {
		sum += NormalPDF((x - s) / k.bandwidth)
	}
	return sum / (float64(len(k.samples)) * k.bandwidth)
}

// CrossingBelow scans [lo, hi] in steps and returns the largest x at which
// weightA·pdfA(x) >= weightB·pdfB(x) holds for all points in [lo, x],
// i.e. the largest prefix of the axis where distribution A dominates. It is
// the threshold-placement rule used by EDSC-KDE: accept a match distance x
// only while the target-class density (times its prior) dominates the
// non-target density. Returns lo if A never dominates at lo.
func CrossingBelow(a, b *KDE, weightA, weightB, lo, hi float64, steps int) float64 {
	if steps < 2 {
		steps = 2
	}
	x := lo
	best := lo
	dx := (hi - lo) / float64(steps-1)
	for i := 0; i < steps; i++ {
		if weightA*a.PDF(x) >= weightB*b.PDF(x) {
			best = x
		} else {
			break
		}
		x += dx
	}
	return best
}
