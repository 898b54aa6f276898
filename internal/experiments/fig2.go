package experiments

import (
	"fmt"
	"sort"
	"strings"

	"etsc/internal/etsc"
	"etsc/internal/stream"
	"etsc/internal/synth"
)

// Fig2Result reproduces Fig. 2: streaming "It was said that Cathy's
// dogmatic catechism dogmatized catholic doggery" past a cat/dog early
// classifier.
type Fig2Result struct {
	Sentence      []string
	Detections    int
	TruePositives int
	FalsePositive int
	Recanted      int
	StemHits      map[string]int // detections attributable to each embedded stem
}

// fig2WordLen is the stream-scale utterance length used for the cat/dog
// model (natural duration, not the stretched UCR length).
const fig2WordLen = 44

// RunFig2 reproduces the claims: the monitor fires early positives on the
// embedded stems; there are zero true positives; and (essentially) every
// detection must later be recanted once the full window is visible.
func RunFig2(cfg Config) (*Fig2Result, error) {
	perClass := 30
	if cfg.Quick {
		perClass = 20
	}
	train, err := synth.WordDataset(synth.NewRand(cfg.Seed+11), []string{"cat", "dog"},
		perClass, fig2WordLen, synth.DefaultWordConfig())
	if err != nil {
		return nil, err
	}
	c, err := etsc.Train(etsc.MustParseSpec("teaser"), train)
	if err != nil {
		return nil, err
	}
	sentence, intervals, err := synth.Sentence(synth.NewRand(cfg.Seed+23), synth.CathySentence,
		synth.DefaultWordConfig(), 30)
	if err != nil {
		return nil, err
	}
	m := &stream.Monitor{Classifier: c, Stride: 2, Step: 2, Suppress: fig2WordLen / 2, Parallelism: cfg.Parallelism}
	dets, err := m.Run(sentence)
	if err != nil {
		return nil, err
	}

	var truth []stream.GroundTruth // empty: the sentence has no true cat/dog
	tally := stream.Match(dets, truth, 0)

	v, err := stream.NewNNVerifier(train, 0.95, 1.0)
	if err != nil {
		return nil, err
	}
	stream.Verify(dets, sentence, fig2WordLen, v)

	res := &Fig2Result{
		Sentence:      synth.CathySentence,
		Detections:    len(dets),
		TruePositives: tally.TP,
		FalsePositive: tally.FP,
		StemHits:      map[string]int{},
	}
	stems := []string{"cathys", "dogmatic", "catechism", "dogmatized", "catholic", "doggery"}
	for _, s := range stems {
		res.StemHits[s] = 0
	}
	for _, d := range dets {
		if d.Recanted {
			res.Recanted++
		}
		for _, iv := range intervals {
			if _, ok := res.StemHits[iv.Word]; !ok {
				continue
			}
			if d.DecisionAt >= iv.Start && d.DecisionAt < iv.End+fig2WordLen/2 {
				res.StemHits[iv.Word]++
			}
		}
	}

	// Shape checks: early positives on the stems, zero genuine positives,
	// near-universal recanting.
	if res.Detections == 0 {
		return res, fmt.Errorf("fig2: no detections — the stems should trigger the monitor")
	}
	if res.TruePositives != 0 {
		return res, fmt.Errorf("fig2: %d true positives in a sentence with no cat/dog", res.TruePositives)
	}
	hit := 0
	for _, n := range res.StemHits {
		if n > 0 {
			hit++
		}
	}
	if hit < 4 {
		return res, fmt.Errorf("fig2: only %d/6 embedded stems triggered detections", hit)
	}
	if float64(res.Recanted) < 0.8*float64(res.Detections) {
		return res, fmt.Errorf("fig2: only %d/%d detections recanted; the paper's point is that all must be",
			res.Recanted, res.Detections)
	}
	return res, nil
}

// Table renders the figure-style output.
func (r *Fig2Result) Table() string {
	var b strings.Builder
	b.WriteString("FIG 2 — streaming \"" + strings.Join(r.Sentence, " ") + "\"\n")
	b.WriteString("past a cat/dog early classifier (TEASER monitor, stride 2)\n\n")
	stems := make([]string, 0, len(r.StemHits))
	for s := range r.StemHits {
		stems = append(stems, s)
	}
	sort.Strings(stems)
	var rows [][]string
	for _, s := range stems {
		rows = append(rows, []string{s, fmt.Sprintf("%d", r.StemHits[s])})
	}
	b.WriteString(table([]string{"embedded stem", "early detections"}, rows))
	fmt.Fprintf(&b, "\n  total detections %d, true positives %d, false positives %d, recanted %d/%d\n",
		r.Detections, r.TruePositives, r.FalsePositive, r.Recanted, r.Detections)
	b.WriteString("  every early classification had to be recanted — after the \"action\" was already taken\n")
	return b.String()
}
