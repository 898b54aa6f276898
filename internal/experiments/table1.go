package experiments

import (
	"fmt"
	"strings"

	"etsc/internal/core"
	"etsc/internal/dataset"
	"etsc/internal/etsc"
	"etsc/internal/synth"
)

// Table1Row is one algorithm's normalized/denormalized accuracy pair.
type Table1Row struct {
	Algorithm string
	core.NormSensitivity
	Flawed bool // whether the algorithm carries the §4 normalization flaw
}

// Table1Result reproduces Table 1 (plus the TEASER footnote-2 row and the
// Fig. 6 perturbation examples).
type Table1Result struct {
	Rows []Table1Row
	// ExampleShifts are the offsets applied to the first test exemplars —
	// the Fig. 6 annotations ("Shifted by 0.206", "Shifted by -0.452").
	ExampleShifts []float64
	MaxShift      float64
}

// RunTable1 trains the six Table 1 algorithms (plus TEASER) on a
// GunPoint-like split and measures the §4 denormalization plunge.
//
// The reproduced claims:
//   - every flawed algorithm scores "apparently very well" (>= 75%) on
//     UCR-normalized test data;
//   - every flawed algorithm loses >= 10 accuracy points when test
//     exemplars are shifted by U[-MaxShift, MaxShift];
//   - TEASER (footnote 2) does not.
func RunTable1(cfg Config) (*Table1Result, error) {
	train, test, err := gunPointSplit(cfg)
	if err != nil {
		return nil, err
	}
	const maxShift = 1.0
	step := 2
	if cfg.Quick {
		step = 4
	}

	// The suite trains through one shared context: every trainer reads the
	// same memoized prefix-distance matrix and prefix cache.
	tc, err := etsc.NewTrainContext(train, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	builds := []suiteSpec{
		{true, etsc.MustParseSpec("ects:relaxed=false,support=0")},
		{true, etsc.MustParseSpec("ects:relaxed=true,support=0")},
		{true, etsc.MustParseSpec("edsc:method=che")},
		{true, etsc.MustParseSpec("edsc:method=kde")},
		{true, etsc.MustParseSpec("relclass:pooled=false")},
		{true, etsc.MustParseSpec("relclass:pooled=true")},
		{false, etsc.MustParseSpec("teaser")},
	}

	res := &Table1Result{MaxShift: maxShift}
	// Record the Fig. 6 example offsets from the same generator stream the
	// measurement uses (fresh rng per classifier keeps runs independent).
	shiftRng := synth.NewRand(cfg.Seed + 1)
	for i := 0; i < 2; i++ {
		res.ExampleShifts = append(res.ExampleShifts, (shiftRng.Float64()*2-1)*maxShift)
	}

	for _, b := range builds {
		c, err := etsc.Train(b.spec, nil, etsc.WithTrainContext(tc))
		if err != nil {
			return nil, err
		}
		ns, err := core.MeasureNormSensitivityParallel(c, test, synth.NewRand(cfg.Seed+1), maxShift, step, cfg.Parallelism)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table1Row{Algorithm: c.Name(), NormSensitivity: ns, Flawed: b.flawed})
	}

	// Shape checks.
	for _, r := range res.Rows {
		if r.Flawed {
			if r.NormalizedAccuracy < 0.75 {
				return res, fmt.Errorf("table1: %s normalized accuracy %.3f below the 'apparently very good' regime",
					r.Algorithm, r.NormalizedAccuracy)
			}
			if r.Drop() < 0.10 {
				return res, fmt.Errorf("table1: %s lost only %.3f accuracy to denormalization; the flaw should cost >= 0.10",
					r.Algorithm, r.Drop())
			}
		} else if r.Drop() > 0.05 {
			return res, fmt.Errorf("table1: %s (not flawed) lost %.3f accuracy; footnote-2 behaviour violated",
				r.Algorithm, r.Drop())
		}
	}
	return res, nil
}

// Table renders the paper-style table.
func (r *Table1Result) Table() string {
	var rows [][]string
	for _, row := range r.Rows {
		note := "flawed (§4)"
		if !row.Flawed {
			note = "footnote 2: z-normalizes own prefixes"
		}
		rows = append(rows, []string{
			row.Algorithm,
			pct(row.NormalizedAccuracy),
			pct(row.DenormalizedAccuracy),
			fmt.Sprintf("%+.1f pts", -row.Drop()*100),
			note,
		})
	}
	var b strings.Builder
	b.WriteString("TABLE 1 — accuracy of early classification algorithms, UCR-normalized vs denormalized\n")
	fmt.Fprintf(&b, "(each test exemplar shifted by U[-%.1f, %.1f]; cf. Fig. 6 examples shifted by %+.3f and %+.3f)\n\n",
		r.MaxShift, r.MaxShift, r.ExampleShifts[0], r.ExampleShifts[1])
	b.WriteString(table(
		[]string{"Algorithm", "Normalized", "DeNormalized", "Δ", "Note"},
		rows,
	))
	return b.String()
}

// suiteSpec is one algorithm of a Table 1 suite, named declaratively: the
// registry spec replaces the old per-algorithm constructor switch, so the
// suites and every spec-driven CLI describe classifiers the same way.
type suiteSpec struct {
	flawed bool
	spec   etsc.Spec
}

// gunPointSplit builds the standard GunPoint-like train/test split used by
// several experiments.
func gunPointSplit(cfg Config) (train, test *dataset.Dataset, err error) {
	gpCfg := synth.DefaultGunPointConfig()
	if cfg.Quick {
		gpCfg.PerClassSize = 40
	}
	d, err := synth.GunPoint(synth.NewRand(cfg.Seed), gpCfg)
	if err != nil {
		return nil, nil, err
	}
	return d.Split(synth.NewRand(cfg.Seed+7), 0.5)
}
