// Streamingwords deploys a cat/dog early classifier on continuous speech
// and demonstrates all three of the paper's confusability problems —
// prefix (§3.1), inclusion (§3.2), homophone (§3.3) — plus the
// meaningfulness checklist verdict for the domain.
//
//	go run ./examples/streamingwords [-quick]
//
// The -quick flag shrinks the training sets so the walkthrough (and its
// smoke test) finishes in a couple of seconds.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"etsc/internal/core"
	"etsc/internal/etsc"
	"etsc/internal/stats"
	"etsc/internal/stream"
	"etsc/internal/synth"
)

const wordLen = 44

func main() {
	quick := flag.Bool("quick", false, "smaller training sets, faster run")
	flag.Parse()
	if err := run(os.Stdout, *quick); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, quick bool) error {
	perClass := 30
	if quick {
		perClass = 12
	}

	// Train the cat/dog model at stream scale.
	train, err := synth.WordDataset(synth.NewRand(11), []string{"cat", "dog"},
		perClass, wordLen, synth.DefaultWordConfig())
	if err != nil {
		return err
	}
	clf, err := etsc.Train(etsc.MustParseSpec("teaser"), train)
	if err != nil {
		return err
	}
	verifier, err := stream.NewNNVerifier(train, 0.95, 1.0)
	if err != nil {
		return err
	}

	sentences := []struct {
		name  string
		words []string
	}{
		{"prefix problem (Fig 2)", synth.CathySentence},
		{"inclusion problem (§3.2)", synth.MorningLightSentence},
		{"homophone problem (§3.3)", synth.LeviticusSentence},
	}
	for _, s := range sentences {
		if err := runSentence(w, s.name, s.words, []string{"cat", "dog"}, clf, verifier); err != nil {
			return err
		}
	}

	// §3.4 monitors the vocalization of {gun, point} over the Amy Gunn
	// sentence, which packs prefixes, inclusions and homophones together.
	gpTrain, err := synth.WordDataset(synth.NewRand(12), []string{"gun", "point"},
		perClass, wordLen, synth.DefaultWordConfig())
	if err != nil {
		return err
	}
	gpClf, err := etsc.Train(etsc.MustParseSpec("teaser"), gpTrain)
	if err != nil {
		return err
	}
	gpVerifier, err := stream.NewNNVerifier(gpTrain, 0.95, 1.0)
	if err != nil {
		return err
	}
	if err := runSentence(w, "all at once (§3.4, gun/point model)", synth.AmyGunnSentence,
		[]string{"gun", "point"}, gpClf, gpVerifier); err != nil {
		return err
	}

	// The paper's recommendation, as a library call: the symbolic
	// confusability analysis of the deployment vocabulary.
	fmt.Fprintln(w, "=== meaningfulness checklist for the cat/dog domain ===")
	lexicon := coreLexicon()
	zipf, err := stats.NewZipf(1.0, 10_000)
	if err != nil {
		return err
	}
	var target core.LexiconEntry
	for _, e := range lexicon {
		if e.Name == "cat" {
			target = e
		}
	}
	conf, err := core.AnalyzeLexiconConfusability(target, lexicon, zipf)
	if err != nil {
		return err
	}
	for _, c := range conf.Confusions {
		fmt.Fprintf(w, "  %-12s %-10s expect %.1fx the target's frequency\n",
			c.Entry.Name, c.Relation, c.FrequencyWeight)
	}
	cost := core.CostModel{EventDamage: 1000, InterventionCost: 200, InterventionEfficacy: 1}
	report := core.Evaluate(core.Assessment{
		Domain:        "spoken cat/dog monitoring",
		Cost:          &cost,
		Confusability: &conf,
	})
	fmt.Fprintln(w)
	fmt.Fprint(w, report)
	return nil
}

func runSentence(w io.Writer, name string, words, classes []string, clf etsc.EarlyClassifier, v stream.Verifier) error {
	fmt.Fprintf(w, "=== %s ===\n", name)
	fmt.Fprintf(w, "    \"%s\"\n", strings.Join(words, " "))
	sentence, intervals, err := synth.Sentence(synth.NewRand(23), words, synth.DefaultWordConfig(), 30)
	if err != nil {
		return err
	}
	mon := &stream.Monitor{Classifier: clf, Stride: 2, Step: 2, Suppress: wordLen / 2}
	dets, err := mon.Run(sentence)
	if err != nil {
		return err
	}
	var truth []stream.GroundTruth
	for _, iv := range intervals {
		for ci, class := range classes {
			if iv.Word == class {
				truth = append(truth, stream.GroundTruth{Label: ci + 1, Start: iv.Start, End: iv.End})
			}
		}
	}
	tally := stream.Match(dets, truth, wordLen/2)
	stream.Verify(dets, sentence, wordLen, v)
	recanted := 0
	for _, d := range dets {
		if d.Recanted {
			recanted++
		}
	}
	for _, d := range dets {
		word := "(silence)"
		for _, iv := range intervals {
			if d.DecisionAt >= iv.Start && d.DecisionAt < iv.End+wordLen/2 {
				word = iv.Word
				break
			}
		}
		class := classes[0]
		if d.Label >= 1 && d.Label <= len(classes) {
			class = classes[d.Label-1]
		}
		status := "STANDS"
		if d.Recanted {
			status = "recanted"
		}
		fmt.Fprintf(w, "    alarm '%s' at point %5d (during %q) — %s\n", class, d.DecisionAt, word, status)
	}
	fmt.Fprintf(w, "    TP=%d FP=%d recanted=%d/%d\n\n", tally.TP, tally.FP, recanted, len(dets))
	return nil
}

// coreLexicon converts the synthesizer's phoneme lexicon into the analysis
// format, with rough Zipf ranks for common vs rare words.
func coreLexicon() []core.LexiconEntry {
	ranks := map[string]int{
		"cat": 400, "dog": 350, "cattle": 1800, "catalog": 2500,
		"catechism": 9000, "catholic": 1500, "cathys": 8000,
		"dogmatic": 7000, "dogmatized": 9500, "doggery": 9900,
	}
	var out []core.LexiconEntry
	for w, ph := range synth.Lexicon {
		rank, ok := ranks[w]
		if !ok {
			continue
		}
		tokens := make([]string, len(ph))
		for i, p := range ph {
			tokens[i] = string(p)
		}
		out = append(out, core.LexiconEntry{Name: w, Tokens: tokens, Rank: rank})
	}
	return out
}
