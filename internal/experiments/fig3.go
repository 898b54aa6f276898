package experiments

import (
	"fmt"
	"strings"

	"etsc/internal/etsc"
)

// Fig3Trace is one model's early-classification trace on a single incoming
// exemplar (the data behind one panel of Fig. 3).
type Fig3Trace struct {
	Model       string
	TriggerAt   int  // datapoints seen when the classification was made
	Correct     bool // whether the early label matched the exemplar's class
	FullLength  int
	PosteriorAt []float64 // top-class posterior at each step (step = 1)
}

// Fig3Result reproduces Fig. 3: (left) TEASER commits after seeing only a
// fraction of a GunPoint exemplar; (right) the user-threshold model commits
// once the posterior crosses 0.8.
type Fig3Result struct {
	Traces []Fig3Trace
}

// RunFig3 runs both framings on the same held-out exemplar.
func RunFig3(cfg Config) (*Fig3Result, error) {
	train, test, err := gunPointSplit(cfg)
	if err != nil {
		return nil, err
	}
	exemplar := test.Instances[0]

	teaser, err := etsc.Train(etsc.MustParseSpec("teaser"), train)
	if err != nil {
		return nil, err
	}
	prob, err := etsc.Train(etsc.MustParseSpec("probthreshold:threshold=0.8,minprefix=10"), train)
	if err != nil {
		return nil, err
	}

	res := &Fig3Result{}
	for _, c := range []etsc.EarlyClassifier{teaser, prob} {
		label, length, forced := etsc.RunOne(c, exemplar.Series, 1)
		tr := Fig3Trace{
			Model:      c.Name(),
			TriggerAt:  length,
			Correct:    label == exemplar.Label,
			FullLength: c.FullLength(),
		}
		if !forced {
			for _, tp := range etsc.TraceRun(c, exemplar.Series, 5) {
				top := 0.0
				for _, p := range tp.Posterior {
					if p > top {
						top = p
					}
				}
				tr.PosteriorAt = append(tr.PosteriorAt, top)
			}
		}
		res.Traces = append(res.Traces, tr)
	}

	for _, tr := range res.Traces {
		if tr.TriggerAt >= tr.FullLength {
			return res, fmt.Errorf("fig3: %s never classified early (trigger %d of %d)",
				tr.Model, tr.TriggerAt, tr.FullLength)
		}
		if !tr.Correct {
			return res, fmt.Errorf("fig3: %s early classification was wrong; the figure shows a correct early call",
				tr.Model)
		}
	}
	return res, nil
}

// Table renders the figure-style output.
func (r *Fig3Result) Table() string {
	var b strings.Builder
	b.WriteString("FIG 3 — early classification traces on one held-out GunPoint exemplar\n\n")
	var rows [][]string
	for _, tr := range r.Traces {
		rows = append(rows, []string{
			tr.Model,
			fmt.Sprintf("%d / %d", tr.TriggerAt, tr.FullLength),
			pct(float64(tr.TriggerAt) / float64(tr.FullLength)),
			fmt.Sprintf("%v", tr.Correct),
		})
	}
	b.WriteString(table([]string{"Model", "Classified after seeing", "Fraction", "Correct"}, rows))
	return b.String()
}
