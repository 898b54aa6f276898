package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"etsc/internal/ts"
)

func sample(t testing.TB) *Dataset {
	t.Helper()
	d, err := New("sample", []Instance{
		{Label: 1, Series: ts.Series{1, 2, 3, 4}},
		{Label: 1, Series: ts.Series{2, 3, 4, 5}},
		{Label: 2, Series: ts.Series{9, 8, 7, 6}},
		{Label: 2, Series: ts.Series{8, 7, 6, 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidates(t *testing.T) {
	if _, err := New("empty", nil); err == nil {
		t.Error("empty dataset should error")
	}
	if _, err := New("ragged", []Instance{
		{Label: 1, Series: ts.Series{1, 2}},
		{Label: 2, Series: ts.Series{1}},
	}); err == nil {
		t.Error("ragged dataset should error")
	}
	if _, err := New("zerolen", []Instance{{Label: 1, Series: ts.Series{}}}); err == nil {
		t.Error("zero-length series should error")
	}
}

func TestBasicAccessors(t *testing.T) {
	d := sample(t)
	if d.Len() != 4 || d.SeriesLen() != 4 {
		t.Errorf("shape %dx%d, want 4x4", d.Len(), d.SeriesLen())
	}
	labels := d.Labels()
	if len(labels) != 2 || labels[0] != 1 || labels[1] != 2 {
		t.Errorf("labels %v", labels)
	}
	counts := d.ClassCounts()
	if counts[1] != 2 || counts[2] != 2 {
		t.Errorf("counts %v", counts)
	}
	byClass := d.ByClass()
	if len(byClass[1]) != 2 || byClass[1][0] != 0 {
		t.Errorf("byClass %v", byClass)
	}
}

func TestZNormalize(t *testing.T) {
	d := sample(t)
	z := d.ZNormalize()
	if !z.IsZNormalized(1e-9) {
		t.Error("ZNormalize output should be z-normalized")
	}
	if d.IsZNormalized(1e-9) {
		t.Error("original should be untouched (and not normalized)")
	}
}

func TestDenormalize(t *testing.T) {
	d := sample(t).ZNormalize()
	rng := rand.New(rand.NewSource(1))
	dn := d.Denormalize(rng, 1.0)
	if dn.Len() != d.Len() {
		t.Fatalf("length changed")
	}
	changed := 0
	for i := range dn.Instances {
		// Each instance is shifted by a constant: differences preserved.
		off := dn.Instances[i].Series[0] - d.Instances[i].Series[0]
		if math.Abs(off) > 1 {
			t.Errorf("offset %v exceeds max shift", off)
		}
		if off != 0 {
			changed++
		}
		for j := range dn.Instances[i].Series {
			got := dn.Instances[i].Series[j] - d.Instances[i].Series[j]
			if math.Abs(got-off) > 1e-12 {
				t.Errorf("instance %d not a pure shift", i)
				break
			}
		}
	}
	if changed == 0 {
		t.Error("denormalization changed nothing")
	}
}

func TestTruncate(t *testing.T) {
	d := sample(t)
	tr, err := d.Truncate(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SeriesLen() != 2 {
		t.Errorf("series len %d, want 2", tr.SeriesLen())
	}
	if tr.Instances[0].Series[0] != 1 || tr.Instances[0].Series[1] != 2 {
		t.Errorf("values %v", tr.Instances[0].Series)
	}
	trz, err := d.Truncate(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !trz.IsZNormalized(1e-9) {
		t.Error("renormalized truncation should be z-normalized")
	}
	if _, err := d.Truncate(0, false); err == nil {
		t.Error("truncate 0 should error")
	}
	if _, err := d.Truncate(5, false); err == nil {
		t.Error("truncate beyond length should error")
	}
	// Truncation must not alias the original storage.
	tr.Instances[0].Series[0] = 99
	if d.Instances[0].Series[0] == 99 {
		t.Error("Truncate aliases original data")
	}
}

func TestSplitStratified(t *testing.T) {
	var instances []Instance
	for i := 0; i < 30; i++ {
		label := 1
		if i%3 == 0 {
			label = 2
		}
		instances = append(instances, Instance{Label: label, Series: ts.Series{float64(i), 0}})
	}
	d, err := New("strat", instances)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := d.Split(rand.New(rand.NewSource(3)), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != 30 {
		t.Errorf("split sizes %d+%d != 30", train.Len(), test.Len())
	}
	tc, sc := train.ClassCounts(), test.ClassCounts()
	if tc[2] == 0 || sc[2] == 0 {
		t.Errorf("stratification failed: train %v test %v", tc, sc)
	}
	if _, _, err := d.Split(rand.New(rand.NewSource(3)), 1.5); err == nil {
		t.Error("out-of-range fraction should error")
	}
}

func TestSplitPreservesInstancesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(40)
		var instances []Instance
		for i := 0; i < n; i++ {
			instances = append(instances, Instance{Label: 1 + i%2, Series: ts.Series{float64(i), 1}})
		}
		d, err := New("p", instances)
		if err != nil {
			return false
		}
		train, test, err := d.Split(rng, 0.6)
		if err != nil {
			return false
		}
		seen := map[float64]int{}
		for _, in := range train.Instances {
			seen[in.Series[0]]++
		}
		for _, in := range test.Instances {
			seen[in.Series[0]]++
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleSampleSubset(t *testing.T) {
	d := sample(t)
	sh := d.Shuffle(rand.New(rand.NewSource(4)))
	if sh.Len() != d.Len() {
		t.Error("shuffle changed size")
	}
	s := d.Sample(rand.New(rand.NewSource(5)), 2)
	if s.Len() != 2 {
		t.Errorf("sample size %d, want 2", s.Len())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := sample(t)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read("roundtrip", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.SeriesLen() != d.SeriesLen() {
		t.Fatalf("shape %dx%d, want %dx%d", got.Len(), got.SeriesLen(), d.Len(), d.SeriesLen())
	}
	for i := range got.Instances {
		if got.Instances[i].Label != d.Instances[i].Label {
			t.Errorf("label %d mismatch", i)
		}
		for j := range got.Instances[i].Series {
			if math.Abs(got.Instances[i].Series[j]-d.Instances[i].Series[j]) > 1e-5 {
				t.Errorf("value [%d][%d] mismatch", i, j)
			}
		}
	}
}

func TestReadCommaSeparated(t *testing.T) {
	in := "1,0.5,0.25\n2,-0.5,-0.25\n"
	d, err := Read("csv", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.SeriesLen() != 2 {
		t.Fatalf("shape %dx%d", d.Len(), d.SeriesLen())
	}
	if d.Instances[1].Label != 2 || d.Instances[1].Series[0] != -0.5 {
		t.Errorf("parsed wrong: %+v", d.Instances[1])
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"no values":  "1\n",
		"bad label":  "x\t1\t2\n",
		"bad value":  "1\t1\tz\n",
		"ragged":     "1\t1\t2\n2\t1\n",
		"empty file": "",
	}
	for name, in := range cases {
		if _, err := Read(name, strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	in := "1\t0.5\t0.25\n\n2\t-0.5\t-0.25\n"
	d, err := Read("blank", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Errorf("len %d, want 2", d.Len())
	}
}
