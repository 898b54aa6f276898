// Quickstart: train an early classifier on a UCR-format dataset, evaluate
// its accuracy/earliness trade-off, and watch it decide on a single
// incoming exemplar.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"etsc/internal/etsc"
	"etsc/internal/synth"
	"etsc/internal/ts"
)

func main() {
	// 1. Generate a GunPoint-like dataset (150 exemplars, length 150,
	//    z-normalized — the UCR format) and split it.
	data, err := synth.GunPoint(synth.NewRand(42), synth.DefaultGunPointConfig())
	if err != nil {
		log.Fatal(err)
	}
	train, test, err := data.Split(synth.NewRand(7), 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d train / %d test exemplars of length %d\n",
		train.Len(), test.Len(), train.SeriesLen())

	// 2. Train TEASER (the one algorithm in the paper's Table 1 family
	//    without the normalization flaw — see footnote 2).
	clf, err := etsc.Train(etsc.MustParseSpec("teaser"), train)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Evaluate on held-out exemplars, feeding prefixes two points at a
	//    time, exactly as data would arrive.
	summary, err := etsc.Evaluate(clf, test, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: accuracy %.1f%%, mean earliness %.1f%%, harmonic mean %.3f\n",
		clf.Name(), summary.Accuracy()*100, summary.MeanEarliness()*100, summary.HarmonicMean())

	// 4. Watch one exemplar stream in.
	exemplar := test.Instances[0]
	fmt.Printf("\nincoming exemplar (true class %d):\n  %s\n",
		exemplar.Label, ts.Sparkline(exemplar.Series, 75))
	label, length, forced := etsc.RunOne(clf, exemplar.Series, 1)
	if forced {
		fmt.Printf("no early decision; forced to classify at full length: class %d\n", label)
		return
	}
	fmt.Printf("early classification: class %d after seeing %d of %d points (%.0f%%)\n",
		label, length, clf.FullLength(), 100*float64(length)/float64(clf.FullLength()))
	fmt.Println("\nNOTE: this works because the exemplar arrives pre-segmented and")
	fmt.Println("pre-normalized. The paper's point — and the rest of this repo — is")
	fmt.Println("about what happens when it doesn't. Try examples/streamingwords next.")
}
