package stream

import (
	"encoding/binary"
	"math"
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/etsc"
	"etsc/internal/synth"
)

func fuzzTrainSet(tb testing.TB) *dataset.Dataset {
	tb.Helper()
	rng := synth.NewRand(5)
	var ins []dataset.Instance
	for i := 0; i < 6; i++ {
		s := make([]float64, 20)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		ins = append(ins, dataset.Instance{Label: i%2 + 1, Series: s})
	}
	d, err := dataset.New("fuzz-train", ins)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// FuzzOnlinePush feeds arbitrary float values — NaN, ±Inf, subnormals,
// whatever the bytes decode to — through Online in arbitrary batch splits
// and asserts the monitor never panics, its position tracks exactly the
// points consumed, and every detection it emits is well-formed.
func FuzzOnlinePush(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(4), uint8(4))
	nan := make([]byte, 24)
	binary.LittleEndian.PutUint64(nan[0:], math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint64(nan[8:], math.Float64bits(math.Inf(1)))
	binary.LittleEndian.PutUint64(nan[16:], math.Float64bits(math.Inf(-1)))
	f.Add(nan, uint8(1), uint8(2))
	f.Add(make([]byte, 200), uint8(7), uint8(3))

	train := fuzzTrainSet(f)
	classifiers := []etsc.EarlyClassifier{}
	if c, err := etsc.TrainSpecString("fixedprefix:at=10,znorm=true", train); err == nil {
		classifiers = append(classifiers, c)
	}
	if c, err := etsc.TrainSpecString("probthreshold:threshold=0.8,minprefix=4", train); err == nil {
		classifiers = append(classifiers, c)
	}
	if len(classifiers) == 0 {
		f.Fatal("no classifiers built")
	}

	f.Fuzz(func(t *testing.T, data []byte, strideB, stepB uint8) {
		stride := int(strideB)%7 + 1
		step := int(stepB)%7 + 1
		clf := classifiers[int(strideB+stepB)%len(classifiers)]
		o, err := NewOnline(clf, stride, step)
		if err != nil {
			t.Fatal(err)
		}
		supp := NewSuppressor(int(stepB) % 16)
		total := 0
		for len(data) > 0 {
			n := int(data[0])%16 + 1
			data = data[1:]
			var batch []float64
			for i := 0; i < n && len(data) >= 8; i++ {
				batch = append(batch, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
				data = data[8:]
			}
			if len(batch) == 0 {
				break
			}
			prevAt := -1
			for _, d := range o.PushBatch(batch) {
				if d.Start < 0 || d.DecisionAt < d.Start {
					t.Fatalf("malformed detection %+v", d)
				}
				if d.DecisionAt < prevAt {
					t.Fatalf("detections out of order: %d after %d", d.DecisionAt, prevAt)
				}
				prevAt = d.DecisionAt
				if !(d.Earliness > 0 && d.Earliness <= 1) {
					t.Fatalf("earliness %v out of (0,1]", d.Earliness)
				}
				supp.Keep(d) // must not panic on any input either
			}
			total += len(batch)
			if o.Pos() != total {
				t.Fatalf("position %d after %d points", o.Pos(), total)
			}
			if o.ActiveCandidates() < 0 || o.ActiveCandidates() > clf.FullLength()/stride+1 {
				t.Fatalf("implausible candidate count %d", o.ActiveCandidates())
			}
		}
	})
}
