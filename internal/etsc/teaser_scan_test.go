package etsc

import (
	"math"
	"math/rand"
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/ts"
)

// TestZMinStdMirrorsZNormInto pins zMinStd to ts's minStd: ZNormInto zeroes
// a prefix exactly when its std is below zMinStd, on both sides of the
// threshold.
func TestZMinStdMirrorsZNormInto(t *testing.T) {
	for k := -40; k <= 40; k++ {
		d := 2 * zMinStd * (1 + float64(k)*1e-9)
		for _, x := range [][]float64{{0, d}, {1, 1 + d}, {-3, -3 + d, -3}} {
			_, std := ts.MeanStd(x)
			zero := true
			for _, v := range ts.ZNorm(x) {
				zero = zero && v == 0
			}
			if zero != (std < zMinStd) {
				t.Fatalf("x=%v std=%g: ZNormInto zeroed=%v, std < zMinStd=%v", x, std, zero, std < zMinStd)
			}
		}
	}
}

// scanTrainSet is a 3-class training set of length-24 random walks with the
// references the scan must not mistake: an exact duplicate within a class,
// one across classes, near-duplicates whose distances from a query differ
// by less than the approximation's rounding, and a reference whose first 8
// points are constant.
func scanTrainSet(rng *rand.Rand) *dataset.Dataset {
	const L = 24
	walk := func() ts.Series {
		s := make(ts.Series, L)
		v := rng.NormFloat64()
		for i := range s {
			v += rng.NormFloat64()
			s[i] = v
		}
		return s
	}
	d := &dataset.Dataset{Name: "scan"}
	for c := 0; c < 3; c++ {
		for i := 0; i < 3+rng.Intn(3); i++ {
			d.Instances = append(d.Instances, dataset.Instance{Label: c, Series: walk()})
		}
	}
	flat := walk()
	for i := 1; i < 8; i++ {
		flat[i] = flat[0]
	}
	d.Instances = append(d.Instances,
		dataset.Instance{Label: 0, Series: d.Instances[0].Series.Clone()},
		dataset.Instance{Label: 2, Series: d.Instances[1].Series.Clone()},
		dataset.Instance{Label: 1, Series: flat})
	for _, rel := range []float64{1e-14, 1e-12, 1e-9} {
		for _, in := range d.Instances[:len(d.Instances)-3] {
			near := in.Series.Clone()
			for i := range near {
				near[i] += rel * rng.NormFloat64()
			}
			d.Instances = append(d.Instances, dataset.Instance{Label: in.Label, Series: near})
		}
	}
	return d
}

// FuzzTEASERScan checks the session's slave scan against the exhaustive
// exact scan: at every snapshot, each class's minimum squared distance must
// match bit for bit the strict-< minimum of ts.SquaredEuclidean from the
// prepared prefix (ZNorm under ZNormPrefix, raw otherwise) to every stored
// row. The stream is a random walk scaled by 10^scaleExp and shifted by
// ±10^offsetExp, and mode makes it hostile: a window near minStd, a NaN,
// +Inf or −Inf point, or a copy of a training reference, exact or within
// rounding of it.
func FuzzTEASERScan(f *testing.F) {
	f.Add(int64(1), int8(0), int8(0), uint8(0))
	f.Add(int64(2), int8(12), int8(0), uint8(0))
	f.Add(int64(3), int8(6), int8(-7), uint8(0))
	f.Add(int64(4), int8(0), int8(100), uint8(0))
	f.Add(int64(5), int8(12), int8(-7), uint8(0))
	f.Add(int64(6), int8(0), int8(0), uint8(1))
	f.Add(int64(7), int8(12), int8(0), uint8(1))
	f.Add(int64(8), int8(3), int8(2), uint8(2))
	f.Add(int64(9), int8(3), int8(2), uint8(3))
	f.Add(int64(10), int8(3), int8(2), uint8(4))
	f.Add(int64(11), int8(12), int8(1), uint8(5))
	f.Add(int64(12), int8(9), int8(40), uint8(6))
	f.Add(int64(13), int8(0), int8(0), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, offsetExp, scaleExp int8, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		train := scanTrainSet(rng)
		offset := math.Pow(10, float64((int(offsetExp)%13+13)%13))
		if rng.Intn(2) == 0 {
			offset = -offset
		}
		scale := math.Pow(10, float64(min(max(int(scaleExp), -12), 160)))
		x := make([]float64, train.SeriesLen())
		v := 0.0
		for i := range x {
			v += rng.NormFloat64()
			x[i] = offset + scale*v
		}
		switch at := rng.Intn(len(x)); mode % 8 {
		case 1: // std near minStd
			sd := zMinStd * []float64{0.5, 0.99, 1.01, 2, 30}[rng.Intn(5)]
			for i := range x {
				x[i] = offset + sd*rng.NormFloat64()
			}
		case 2:
			x[at] = math.NaN()
		case 3:
			x[at] = math.Inf(1)
		case 4:
			x[at] = math.Inf(-1)
		case 5, 6: // a training reference, shifted and scaled
			ref := train.Instances[rng.Intn(train.Len())].Series
			for i, r := range ref {
				x[i] = offset + scale*r
				if mode%8 == 6 {
					x[i] += scale * 1e-13 * rng.NormFloat64()
				}
			}
		}
		for _, znorm := range []bool{true, false} {
			cfg := DefaultTEASERConfig()
			cfg.ZNormPrefix = znorm
			te, _, err := teaserSetup(train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range te.lengths {
				set, err := train.Truncate(l, znorm)
				if err != nil {
					t.Fatal(err)
				}
				te.addSnapshot(set)
			}
			s := te.NewIncrementalSession().(*teaserSession)
			s.buf = append(s.buf, x...)
			want := make([]float64, te.li.classes())
			for si, l := range te.lengths {
				q := x[:l]
				if znorm {
					q = ts.ZNorm(q)
				}
				for c := range want {
					want[c] = math.Inf(1)
				}
				for j, in := range te.slaveSet(si).Instances {
					if d := ts.SquaredEuclidean(q, in.Series); d < want[te.li.classOf[j]] {
						want[te.li.classOf[j]] = d
					}
				}
				s.scan(si)
				for c := range want {
					if math.Float64bits(s.nearest[c]) != math.Float64bits(want[c]) {
						t.Fatalf("znorm=%v l=%d class %d: scan %v (%x), exhaustive %v (%x)", znorm, l, c,
							s.nearest[c], math.Float64bits(s.nearest[c]), want[c], math.Float64bits(want[c]))
					}
				}
			}
		}
	})
}
