package hub

import (
	"fmt"
	"math/rand"

	"etsc/internal/dataset"
	"etsc/internal/etsc"
	"etsc/internal/stream"
	"etsc/internal/synth"
	"etsc/internal/ts"
)

// This file defines the demo workload shared by the golden determinism
// test, the hub scaling benchmark, the serve test batteries, perfbench
// and cmd/etsc-serve's pipelines: three stream kinds, each pairing a
// trained pipeline with a generator for endless telemetry of that kind.
// Everything is seeded, so a (seed, kind, stream index) triple names one
// reproducible stream.

// Kind is one stream family: a ready-to-attach pipeline plus a generator.
type Kind struct {
	Name   string
	Config StreamConfig
	// Spec is the declarative description the kind's classifier was
	// trained from (the registry path); the serving API reports it and
	// retrains per-stream overrides against TrainSet.
	Spec etsc.Spec
	// TrainSet is the kind's training data. It is shared and read-only:
	// per-stream spec overrides train new classifiers against it.
	TrainSet *dataset.Dataset
	// Gen renders one stream of at least minLen points; distinct streams
	// of a kind use distinct rngs.
	Gen func(rng *rand.Rand, minLen int) ([]float64, error)
}

// demoVocab is the spoken-word stream vocabulary — a fixed slice, not the
// Lexicon map, so word choice is deterministic.
var demoVocab = []string{"cat", "dog", "cattle", "catalog", "catholic", "dogmatic", "doggery", "light", "weight", "paper"}

const demoWordLen = 44

// DemoKinds trains the three demo stream kinds:
//
//   - words: TEASER cat/dog model with an NN verifier over continuous
//     speech (the Fig. 2 false-alarm setting),
//   - gunpoint: ProbThreshold gesture model over exemplars embedded in a
//     smoothed random walk (the Appendix B setting),
//   - chicken: fixed-prefix dustbathing-onset model over backpack
//     accelerometer telemetry (the Fig. 8 setting).
func DemoKinds(seed int64) ([]Kind, error) {
	// Kind i is seeded seed+i.
	builders := []func(int64) (Kind, error){wordsKind, gunpointKind, chickenKind}
	kinds := make([]Kind, len(builders))
	for i, build := range builders {
		k, err := build(seed + int64(i))
		if err != nil {
			return nil, err
		}
		kinds[i] = k
	}
	return kinds, nil
}

func wordsKind(seed int64) (Kind, error) {
	train, err := synth.WordDataset(synth.NewRand(seed), []string{"cat", "dog"}, 20, demoWordLen, synth.DefaultWordConfig())
	if err != nil {
		return Kind{}, err
	}
	spec := etsc.MustParseSpec("teaser")
	clf, err := etsc.Train(spec, train)
	if err != nil {
		return Kind{}, err
	}
	verifier, err := stream.NewNNVerifier(train, 0.95, 1.0)
	if err != nil {
		return Kind{}, err
	}
	return Kind{
		Name:     "words",
		Spec:     spec,
		TrainSet: train,
		Config: StreamConfig{
			Classifier: clf,
			Stride:     4,
			Step:       4,
			Suppress:   demoWordLen / 2,
			Verifier:   verifier,
		},
		Gen: func(rng *rand.Rand, minLen int) ([]float64, error) {
			// ~wordLen points per word plus the gap; overshoot a little.
			n := minLen/(demoWordLen+10) + 2
			list := make([]string, n)
			for i := range list {
				list[i] = demoVocab[rng.Intn(len(demoVocab))]
			}
			s, _, err := synth.Sentence(rng, list, synth.DefaultWordConfig(), 10)
			return s, err
		},
	}, nil
}

func gunpointKind(seed int64) (Kind, error) {
	cfg := synth.DefaultGunPointConfig()
	cfg.PerClassSize = 20
	d, err := synth.GunPoint(synth.NewRand(seed), cfg)
	if err != nil {
		return Kind{}, err
	}
	train, test, err := d.Split(synth.NewRand(seed+1), 0.5)
	if err != nil {
		return Kind{}, err
	}
	spec := etsc.MustParseSpec("probthreshold:threshold=0.9,minprefix=20")
	clf, err := etsc.Train(spec, train)
	if err != nil {
		return Kind{}, err
	}
	exemplars := make([]ts.Series, test.Len())
	labels := make([]int, test.Len())
	for i, in := range test.Instances {
		exemplars[i] = in.Series
		labels[i] = in.Label
	}
	full := clf.FullLength()
	return Kind{
		Name:     "gunpoint",
		Spec:     spec,
		TrainSet: train,
		Config: StreamConfig{
			Classifier: clf,
			Stride:     8,
			Step:       8,
			Suppress:   full / 2,
		},
		Gen: func(rng *rand.Rand, minLen int) ([]float64, error) {
			k := 4 + rng.Intn(4)
			ex := make([]ts.Series, k)
			lb := make([]int, k)
			for i := 0; i < k; i++ {
				j := rng.Intn(len(exemplars))
				ex[i], lb[i] = exemplars[j], labels[j]
			}
			es, err := synth.EmbedInRandomWalk(rng, ex, lb, minLen, 16)
			if err != nil {
				return nil, err
			}
			return es.Stream, nil
		},
	}, nil
}

func chickenKind(seed int64) (Kind, error) {
	ccfg := synth.DefaultChickenConfig()
	train, err := synth.ChickenWindowDataset(synth.NewRand(seed), ccfg, 12, synth.DustbathingTemplateLen)
	if err != nil {
		return Kind{}, err
	}
	spec := etsc.MustParseSpec(fmt.Sprintf("fixedprefix:at=%d,znorm=true", synth.DustbathingTemplateLen/2))
	clf, err := etsc.Train(spec, train)
	if err != nil {
		return Kind{}, err
	}
	streamCfg := ccfg
	streamCfg.DustbathProb = 0.08
	return Kind{
		Name:     "chicken",
		Spec:     spec,
		TrainSet: train,
		Config: StreamConfig{
			Classifier: clf,
			Stride:     8,
			Step:       8,
			Suppress:   synth.DustbathingTemplateLen,
		},
		Gen: func(rng *rand.Rand, minLen int) ([]float64, error) {
			s, _, err := synth.ChickenStream(rng, streamCfg, minLen)
			return s, err
		},
	}, nil
}

// DemoStream pairs a ready-to-attach stream with its rendered telemetry.
type DemoStream struct {
	ID     string
	Kind   string // name of the Kind the stream was rendered from
	Config StreamConfig
	Data   []float64
}

// DemoStreams renders n streams round-robined over the kinds, seeded so
// the same (seed, n, minLen) triple produces the same fleet everywhere;
// perfbench, the test batteries and BenchmarkHubScaling share this
// constructor so their workloads cannot silently diverge.
func DemoStreams(kinds []Kind, seed int64, n, minLen int) ([]DemoStream, error) {
	out := make([]DemoStream, n)
	for i := range out {
		k := kinds[i%len(kinds)]
		rng := rand.New(rand.NewSource(DemoStreamSeed(seed, i%len(kinds), i)))
		data, err := k.Gen(rng, minLen)
		if err != nil {
			return nil, err
		}
		out[i] = DemoStream{ID: DemoStreamID(k.Name, i), Kind: k.Name, Config: k.Config, Data: data}
	}
	return out, nil
}

// DemoStreamID names stream i of a kind.
func DemoStreamID(kind string, i int) string { return fmt.Sprintf("%s-%02d", kind, i) }

// DemoStreamSeed derives the per-stream generator seed from the scenario
// seed, the kind's index, and the stream's index.
func DemoStreamSeed(seed int64, kindIdx, streamIdx int) int64 {
	return seed*1_000_003 + int64(kindIdx)*10_007 + int64(streamIdx)
}
