package classify

import (
	"math"
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/synth"
	"etsc/internal/ts"
)

func twoBlob(t testing.TB) *dataset.Dataset {
	t.Helper()
	// Two well-separated constant-level classes.
	var instances []dataset.Instance
	for i := 0; i < 10; i++ {
		off := float64(i) * 0.01
		instances = append(instances,
			dataset.Instance{Label: 1, Series: ts.Series{0 + off, 0, 0, 0}},
			dataset.Instance{Label: 2, Series: ts.Series{5 + off, 5, 5, 5}},
		)
	}
	d, err := dataset.New("blobs", instances)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestKNNClassify(t *testing.T) {
	d := twoBlob(t)
	knn, err := NewKNN(d, 1, EuclideanDistance{})
	if err != nil {
		t.Fatal(err)
	}
	if got := knn.Classify(ts.Series{0.2, 0.1, 0, 0}); got != 1 {
		t.Errorf("near class 1 classified as %d", got)
	}
	if got := knn.Classify(ts.Series{4.9, 5, 5.1, 5}); got != 2 {
		t.Errorf("near class 2 classified as %d", got)
	}
}

func TestKNNConfidence(t *testing.T) {
	d := twoBlob(t)
	knn, err := NewKNN(d, 5, EuclideanDistance{})
	if err != nil {
		t.Fatal(err)
	}
	label, conf := knn.ClassifyConfidence(ts.Series{0, 0, 0, 0})
	if label != 1 || conf != 1 {
		t.Errorf("unanimous vote expected: %d %v", label, conf)
	}
}

func TestKNNNeighborsSkip(t *testing.T) {
	d := twoBlob(t)
	knn, err := NewKNN(d, 3, EuclideanDistance{})
	if err != nil {
		t.Fatal(err)
	}
	ns := knn.Neighbors(d.Instances[0].Series, 0)
	for _, n := range ns {
		if n.Index == 0 {
			t.Error("skip index appeared in neighbours")
		}
	}
	if len(ns) != 3 {
		t.Errorf("got %d neighbours, want 3", len(ns))
	}
	// Sorted ascending.
	for i := 1; i < len(ns); i++ {
		if ns[i].Dist < ns[i-1].Dist {
			t.Error("neighbours not sorted")
		}
	}
}

func TestKNNErrors(t *testing.T) {
	if _, err := NewKNN(nil, 1, nil); err == nil {
		t.Error("nil training set should error")
	}
	d := twoBlob(t)
	if _, err := NewKNN(d, 0, nil); err == nil {
		t.Error("k=0 should error")
	}
	// nil distance defaults to Euclidean.
	knn, err := NewKNN(d, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if knn.Distance.Name() != "ED" {
		t.Errorf("default distance %s", knn.Distance.Name())
	}
}

func TestEvaluateAndConfusion(t *testing.T) {
	d := twoBlob(t)
	knn, err := NewKNN(d, 1, EuclideanDistance{})
	if err != nil {
		t.Fatal(err)
	}
	ev := knn.Evaluate(d)
	if ev.Accuracy() != 1 {
		t.Errorf("self-evaluation accuracy %v", ev.Accuracy())
	}
	if ev.ErrorRate() != 0 {
		t.Errorf("error rate %v", ev.ErrorRate())
	}
	if ev.Confusion.Count(1, 1) != 10 || ev.Confusion.Count(1, 2) != 0 {
		t.Errorf("confusion wrong:\n%s", ev.Confusion)
	}
}

func TestLeaveOneOut(t *testing.T) {
	d := twoBlob(t)
	ev := LeaveOneOut(d, EuclideanDistance{})
	if ev.Total != d.Len() {
		t.Errorf("total %d", ev.Total)
	}
	if ev.Accuracy() != 1 {
		t.Errorf("LOO accuracy %v on separable blobs", ev.Accuracy())
	}
}

func TestDTWDistanceClassifier(t *testing.T) {
	// Phase-shifted sines of two frequencies: DTW 1NN should separate.
	var instances []dataset.Instance
	n := 40
	for i := 0; i < 8; i++ {
		a := make(ts.Series, n)
		b := make(ts.Series, n)
		for j := 0; j < n; j++ {
			a[j] = math.Sin(2 * math.Pi * float64(j+i) / 20) // period 20
			b[j] = math.Sin(2 * math.Pi * float64(j+i) / 8)  // period 8
		}
		instances = append(instances,
			dataset.Instance{Label: 1, Series: a},
			dataset.Instance{Label: 2, Series: b})
	}
	d, err := dataset.New("sines", instances)
	if err != nil {
		t.Fatal(err)
	}
	ev := LeaveOneOut(d, DTWDistance{Radius: 5})
	if ev.Accuracy() < 0.9 {
		t.Errorf("DTW LOO accuracy %v", ev.Accuracy())
	}
	if (DTWDistance{Radius: 5}).Name() != "DTW(r=5)" {
		t.Error("name")
	}
}

func TestZNormEuclideanDistanceShiftInvariant(t *testing.T) {
	// zED must ignore per-exemplar offsets entirely.
	d, err := synth.GunPoint(synth.NewRand(5), synth.DefaultGunPointConfig())
	if err != nil {
		t.Fatal(err)
	}
	zed := ZNormEuclideanDistance{}
	a := d.Instances[0].Series
	b := d.Instances[1].Series
	if got, want := zed.Dist(ts.Shift(a, 3), b), zed.Dist(a, b); math.Abs(got-want) > 1e-9 {
		t.Errorf("zED changed under shift: %v vs %v", got, want)
	}
	if zed.Name() != "zED" {
		t.Error("name")
	}
}

func TestPrefixSweepAndBestPrefix(t *testing.T) {
	d, err := synth.GunPoint(synth.NewRand(6), synth.DefaultGunPointConfig())
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := d.Split(synth.NewRand(7), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	points, err := PrefixSweep(train, test, 20, 150, 26, true, EuclideanDistance{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d points, want 6", len(points))
	}
	for i, p := range points {
		if p.PrefixLen != 20+26*i {
			t.Errorf("point %d prefix %d", i, p.PrefixLen)
		}
		if p.ErrorRate < 0 || p.ErrorRate > 1 {
			t.Errorf("error rate %v out of range", p.ErrorRate)
		}
	}
	best, full, err := BestPrefix(points)
	if err != nil {
		t.Fatal(err)
	}
	if best.ErrorRate > full.ErrorRate {
		t.Errorf("best %v worse than full %v", best, full)
	}
	if _, _, err := BestPrefix(nil); err == nil {
		t.Error("empty sweep should error")
	}
}

func TestPrefixSweepErrors(t *testing.T) {
	d := twoBlob(t)
	if _, err := PrefixSweep(d, d, 0, 4, 1, false, EuclideanDistance{}); err == nil {
		t.Error("from=0 should error")
	}
	if _, err := PrefixSweep(d, d, 1, 10, 1, false, EuclideanDistance{}); err == nil {
		t.Error("to beyond length should error")
	}
}
