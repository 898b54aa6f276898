package experiments

import (
	"fmt"
	"strings"
	"time"

	"etsc/internal/etsc"
)

// SpecEvalRow is one trained spec's evaluation summary.
type SpecEvalRow struct {
	Spec      string
	Name      string
	Accuracy  float64
	Earliness float64
	Harmonic  float64
	Forced    float64
	TrainTime time.Duration
}

// SpecEvalResult evaluates an ad-hoc, declaratively named algorithm suite
// — the `etsc-repro -spec` surface. Where the fixed tables answer the
// paper's questions, this runner answers the practitioner's: "how would
// *this* configuration do?", for any spec the registry can build,
// including externally registered algorithms.
type SpecEvalResult struct {
	Rows []SpecEvalRow
	Step int
}

// DefaultSpecEvalSpecs is the suite RunSpecEval evaluates when the caller
// names none: one representative of each decision style.
func DefaultSpecEvalSpecs() []etsc.Spec {
	return []etsc.Spec{
		etsc.MustParseSpec("ects:support=0"),
		etsc.MustParseSpec("teaser"),
		etsc.MustParseSpec("probthreshold:threshold=0.8,minprefix=10"),
		etsc.MustParseSpec("fixedprefix:znorm=true"),
	}
}

// RunSpecEval trains each spec on the standard GunPoint-like split and
// evaluates it on the held-out half. The specs share one training context,
// so a row's Train time is its marginal cost on that context: distances an
// earlier spec already materialized are free. Parallelism bounds both the
// context and the evaluation pool; results are identical for every value.
func RunSpecEval(cfg Config, specs []etsc.Spec) (*SpecEvalResult, error) {
	if len(specs) == 0 {
		specs = DefaultSpecEvalSpecs()
	}
	train, test, err := gunPointSplit(cfg)
	if err != nil {
		return nil, err
	}
	step := 2
	if cfg.Quick {
		step = 4
	}
	tc, err := etsc.NewTrainContext(train, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	res := &SpecEvalResult{Step: step}
	for _, spec := range specs {
		t0 := time.Now()
		c, err := etsc.Train(spec, nil, etsc.WithTrainContext(tc))
		if err != nil {
			return nil, fmt.Errorf("speceval: %s: %w", spec, err)
		}
		trainTime := time.Since(t0)
		sum, err := etsc.EvaluateParallel(c, test, step, cfg.Parallelism)
		if err != nil {
			return nil, fmt.Errorf("speceval: %s: %w", spec, err)
		}
		res.Rows = append(res.Rows, SpecEvalRow{
			Spec:      spec.String(),
			Name:      c.Name(),
			Accuracy:  sum.Accuracy(),
			Earliness: sum.MeanEarliness(),
			Harmonic:  sum.HarmonicMean(),
			Forced:    sum.ForcedFraction(),
			TrainTime: trainTime,
		})
	}
	return res, nil
}

// Table renders the evaluation as an aligned text table.
func (r *SpecEvalResult) Table() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Spec,
			row.Name,
			pct(row.Accuracy),
			pct(row.Earliness),
			pct(row.Harmonic),
			pct(row.Forced),
			row.TrainTime.Round(time.Millisecond).String(),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SPEC EVAL — declarative suite on the GunPoint-like split (decision step %d)\n\n", r.Step)
	b.WriteString(table(
		[]string{"Spec", "Model", "Accuracy", "Earliness", "HMean", "Forced", "Train"},
		rows,
	))
	return b.String()
}
