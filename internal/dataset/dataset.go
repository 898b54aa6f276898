// Package dataset implements the UCR-format time series dataset the paper
// critiques: a collection of exemplars that are all the same length, at
// least approximately aligned in time, and (by archive convention)
// z-normalized. It provides readers/writers for the UCR archive's
// tab-separated text format, train/test handling, stratified sampling, and
// the integrity validation used throughout the experiments.
package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"etsc/internal/ts"
)

// Instance is a single labeled exemplar.
type Instance struct {
	Label  int
	Series ts.Series
}

// Dataset is an ordered collection of equal-length labeled exemplars —
// the "UCR format" of the paper's Fig. 1.
type Dataset struct {
	Name      string
	Instances []Instance
}

// ErrEmpty is returned when an operation needs at least one instance.
var ErrEmpty = errors.New("dataset: empty dataset")

// New creates a named dataset from instances, validating equal lengths.
func New(name string, instances []Instance) (*Dataset, error) {
	d := &Dataset{Name: name, Instances: instances}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.Instances) }

// SeriesLen returns the common exemplar length (0 if empty).
func (d *Dataset) SeriesLen() int {
	if len(d.Instances) == 0 {
		return 0
	}
	return len(d.Instances[0].Series)
}

// Labels returns the sorted set of distinct labels.
func (d *Dataset) Labels() []int {
	seen := map[int]bool{}
	for _, in := range d.Instances {
		seen[in.Label] = true
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// ClassCounts returns instance counts per label.
func (d *Dataset) ClassCounts() map[int]int {
	out := map[int]int{}
	for _, in := range d.Instances {
		out[in.Label]++
	}
	return out
}

// ByClass returns the instance indices per label.
func (d *Dataset) ByClass() map[int][]int {
	out := map[int][]int{}
	for i, in := range d.Instances {
		out[in.Label] = append(out[in.Label], i)
	}
	return out
}

// Validate checks the UCR-format invariants: non-empty, equal lengths,
// non-empty series.
func (d *Dataset) Validate() error {
	if len(d.Instances) == 0 {
		return ErrEmpty
	}
	want := len(d.Instances[0].Series)
	if want == 0 {
		return fmt.Errorf("dataset %q: zero-length series", d.Name)
	}
	for i, in := range d.Instances {
		if len(in.Series) != want {
			return fmt.Errorf("dataset %q: instance %d has length %d, want %d",
				d.Name, i, len(in.Series), want)
		}
	}
	return nil
}

// IsZNormalized reports whether every exemplar is z-normalized within tol.
func (d *Dataset) IsZNormalized(tol float64) bool {
	for _, in := range d.Instances {
		if !ts.IsZNormalized(in.Series, tol) {
			return false
		}
	}
	return true
}

// ZNormalize returns a copy of the dataset with every exemplar
// z-normalized — the step the UCR archive applies and which, the paper
// argues, streaming deployment cannot replicate.
func (d *Dataset) ZNormalize() *Dataset {
	out := &Dataset{Name: d.Name, Instances: make([]Instance, len(d.Instances))}
	for i, in := range d.Instances {
		out.Instances[i] = Instance{Label: in.Label, Series: ts.ZNorm(in.Series)}
	}
	return out
}

// Denormalize returns a copy with each exemplar shifted by an independent
// uniform offset in [-maxShift, maxShift] drawn from rng — the paper's
// Fig. 6 / Table 1 perturbation ("approximately equivalent to tilting the
// camera randomly up or down by about 1.9 degrees").
func (d *Dataset) Denormalize(rng *rand.Rand, maxShift float64) *Dataset {
	out := &Dataset{Name: d.Name + "-denorm", Instances: make([]Instance, len(d.Instances))}
	for i, in := range d.Instances {
		offset := (rng.Float64()*2 - 1) * maxShift
		out.Instances[i] = Instance{Label: in.Label, Series: ts.Shift(in.Series, offset)}
	}
	return out
}

// Truncate returns a copy keeping only the first n points of every
// exemplar. If renormalize is true each truncation is re-z-normalized,
// which is the *correct* handling the paper applies in Fig. 9 (and which
// most ETSC papers skip).
func (d *Dataset) Truncate(n int, renormalize bool) (*Dataset, error) {
	if n <= 0 || n > d.SeriesLen() {
		return nil, fmt.Errorf("dataset %q: truncate length %d out of range 1..%d", d.Name, n, d.SeriesLen())
	}
	out := &Dataset{Name: fmt.Sprintf("%s-prefix%d", d.Name, n), Instances: make([]Instance, len(d.Instances))}
	for i, in := range d.Instances {
		p := in.Series.Prefix(n).Clone()
		if renormalize {
			p = ts.ZNorm(p)
		}
		out.Instances[i] = Instance{Label: in.Label, Series: p}
	}
	return out, nil
}

// Shuffle returns a copy with instance order permuted by rng.
func (d *Dataset) Shuffle(rng *rand.Rand) *Dataset {
	out := &Dataset{Name: d.Name, Instances: append([]Instance(nil), d.Instances...)}
	rng.Shuffle(len(out.Instances), func(i, j int) {
		out.Instances[i], out.Instances[j] = out.Instances[j], out.Instances[i]
	})
	return out
}

// Split partitions the dataset into train/test with the given train
// fraction, stratified by class, using rng for the per-class shuffles.
func (d *Dataset) Split(rng *rand.Rand, trainFrac float64) (train, test *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: train fraction %v out of (0,1)", trainFrac)
	}
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	train = &Dataset{Name: d.Name + "-train"}
	test = &Dataset{Name: d.Name + "-test"}
	byClass := d.ByClass()
	labels := d.Labels()
	for _, label := range labels {
		idx := append([]int(nil), byClass[label]...)
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		nTrain := int(float64(len(idx)) * trainFrac)
		if nTrain == 0 {
			nTrain = 1
		}
		if nTrain == len(idx) && len(idx) > 1 {
			nTrain--
		}
		for i, id := range idx {
			inst := d.Instances[id]
			if i < nTrain {
				train.Instances = append(train.Instances, inst)
			} else {
				test.Instances = append(test.Instances, inst)
			}
		}
	}
	return train, test, nil
}

// Sample returns a stratified random sample of up to n instances.
func (d *Dataset) Sample(rng *rand.Rand, n int) *Dataset {
	if n >= d.Len() {
		return d.Shuffle(rng)
	}
	shuffled := d.Shuffle(rng)
	out := &Dataset{Name: d.Name + "-sample", Instances: shuffled.Instances[:n]}
	return out
}

// Write serializes the dataset in the UCR archive text format: one line per
// exemplar, label first, fields separated by tabs.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, in := range d.Instances {
		if _, err := fmt.Fprintf(bw, "%d", in.Label); err != nil {
			return err
		}
		for _, v := range in.Series {
			if _, err := fmt.Fprintf(bw, "\t%.6f", v); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a dataset from the UCR archive text format (tab- or
// comma-separated; label in the first field).
func Read(name string, r io.Reader) (*Dataset, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<24)
	d := &Dataset{Name: name}
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		sep := "\t"
		if !strings.Contains(line, "\t") {
			sep = ","
		}
		fields := strings.Split(line, sep)
		if len(fields) < 2 {
			return nil, fmt.Errorf("dataset %q line %d: need label + at least 1 value", name, lineNo)
		}
		labelF, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("dataset %q line %d: bad label %q: %v", name, lineNo, fields[0], err)
		}
		inst := Instance{Label: int(labelF), Series: make(ts.Series, 0, len(fields)-1)}
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset %q line %d field %d: %v", name, lineNo, i+2, err)
			}
			inst.Series = append(inst.Series, v)
		}
		d.Instances = append(d.Instances, inst)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
