package experiments

import (
	"fmt"
	"strings"

	"etsc/internal/core"
	"etsc/internal/etsc"
	"etsc/internal/stream"
	"etsc/internal/synth"
	"etsc/internal/ts"
)

// AppendixBResult reproduces Appendix B's deployment experiment: GunPoint
// exemplars embedded between long stretches of smoothed random walk, the
// TEASER-style monitor run over the whole stream, and the economics of the
// resulting alarm load evaluated against the paper's distillation-column
// cost model ($1000 damage, $200 intervention ⇒ break-even precision 0.2).
type AppendixBResult struct {
	StreamLen  int
	TrueEvents int
	Tally      stream.Tally
	Cost       core.CostModel
	Net        float64
	Report     core.Report
}

// RunAppendixB runs the deployment and verifies the claims: false positives
// outnumber true positives far beyond break-even, so the deployment loses
// money and the meaningfulness checklist returns MEANINGLESS.
func RunAppendixB(cfg Config) (*AppendixBResult, error) {
	train, test, err := gunPointSplit(cfg)
	if err != nil {
		return nil, err
	}
	streamLen, nEvents := 1_200_000, 20
	stride := 8
	if cfg.Quick {
		streamLen, nEvents = 200_000, 8
	}

	// Plant one test exemplar per event, alternating classes.
	var exemplars []ts.Series
	var labels []int
	byClass := test.ByClass()
	classLabels := test.Labels()
	for i := 0; i < nEvents; i++ {
		label := classLabels[i%len(classLabels)]
		idx := byClass[label]
		exemplars = append(exemplars, test.Instances[idx[i/2%len(idx)]].Series)
		labels = append(labels, label)
	}
	embedded, err := synth.EmbedInRandomWalk(synth.NewRand(cfg.Seed+17), exemplars, labels, streamLen, 16)
	if err != nil {
		return nil, err
	}

	c, err := etsc.Train(etsc.MustParseSpec("teaser"), train)
	if err != nil {
		return nil, err
	}
	L := c.FullLength()
	mon := &stream.Monitor{Classifier: c, Stride: stride, Step: 8, Suppress: L / 2, Parallelism: cfg.Parallelism}
	dets, err := mon.Run(embedded.Stream)
	if err != nil {
		return nil, err
	}
	var truth []stream.GroundTruth
	for _, ev := range embedded.Events {
		truth = append(truth, stream.GroundTruth{Label: ev.Label, Start: ev.Start, End: ev.End})
	}
	tally := stream.Match(dets, truth, L/2)

	cost := core.CostModel{EventDamage: 1000, InterventionCost: 200, InterventionEfficacy: 1}
	res := &AppendixBResult{
		StreamLen:  len(embedded.Stream),
		TrueEvents: len(truth),
		Tally:      tally,
		Cost:       cost,
		Net:        cost.Net(tally.TP, tally.FP, tally.FN),
	}

	// The full meaningfulness checklist for this deployment.
	windows := float64(len(embedded.Stream)/stride) / float64(len(embedded.Stream)) * 1e6
	events := float64(len(truth)) / float64(len(embedded.Stream)) * 1e6
	fpRate := 0.0
	if n := len(embedded.Stream)/stride - tally.TP; n > 0 {
		fpRate = float64(tally.FP) / float64(n)
	}
	res.Report = core.Evaluate(core.Assessment{
		Domain:   "GunPoint exemplars embedded in random walk (Appendix B)",
		Cost:     &cost,
		Measured: &core.MeasuredDeployment{TP: tally.TP, FP: tally.FP, FN: tally.FN},
		Prior:    &core.PriorModel{EventsPerMillion: events, WindowsPerMillion: windows, PerWindowFPRate: fpRate},
	})

	// Shape checks: the monitor does fire, FP:TP is far beyond break-even,
	// and the deployment loses money.
	if tally.TP+tally.FP == 0 {
		return res, fmt.Errorf("appendixB: the monitor never fired at all")
	}
	if tally.FPPerTP() <= cost.MaxFalseAlarmsPerTrue() {
		return res, fmt.Errorf("appendixB: FP:TP ratio %.1f within break-even %.1f; the paper observes it is far beyond",
			tally.FPPerTP(), cost.MaxFalseAlarmsPerTrue())
	}
	if res.Net >= 0 {
		return res, fmt.Errorf("appendixB: deployment net %+.0f should be a loss", res.Net)
	}
	return res, nil
}

// Table renders the appendix-style output.
func (r *AppendixBResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "APPENDIX B — deployed ETSC monitor over %d stream points (%d true events)\n\n",
		r.StreamLen, r.TrueEvents)
	rows := [][]string{
		{"true positives", fmt.Sprintf("%d", r.Tally.TP)},
		{"false positives", fmt.Sprintf("%d", r.Tally.FP)},
		{"false negatives", fmt.Sprintf("%d", r.Tally.FN)},
		{"FP per TP", fmt.Sprintf("%.1f", r.Tally.FPPerTP())},
		{"break-even FP per TP", fmt.Sprintf("%.1f", r.Cost.MaxFalseAlarmsPerTrue())},
		{"net value ($1000 damage, $200 intervention)", fmt.Sprintf("$%+.0f", r.Net)},
	}
	b.WriteString(table([]string{"quantity", "value"}, rows))
	b.WriteByte('\n')
	b.WriteString(r.Report.String())
	return b.String()
}
