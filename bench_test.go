// Benchmarks regenerating every table and figure of the paper (quick-size
// workloads; run cmd/etsc-repro for the full-size versions), plus the
// ablation benches DESIGN.md calls out and micro-benchmarks of the
// distance kernels everything is built on.
//
//	go test -bench=. -benchmem
package etsc_test

import (
	"fmt"
	"testing"

	"etsc/internal/classify"
	"etsc/internal/dataset"
	"etsc/internal/etsc"
	"etsc/internal/experiments"
	"etsc/internal/hub"
	"etsc/internal/stream"
	"etsc/internal/synth"
	"etsc/internal/ts"
)

// --- one bench per paper artifact -----------------------------------------

func BenchmarkFig1CatDogDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig1(experiments.QuickConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2StreamingSentence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2(experiments.QuickConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3EarlyTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig3(experiments.QuickConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Homophones(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(experiments.QuickConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Denormalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(experiments.QuickConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Extended(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1Extended(experiments.QuickConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7ECGWander(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(experiments.QuickConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Dustbathing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(experiments.QuickConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9PrefixSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig9(experiments.QuickConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendixBStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAppendixB(experiments.QuickConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (DESIGN.md) ------------------------------------------

func benchSplit(b *testing.B) (train, test *dataset.Dataset) {
	b.Helper()
	cfg := synth.DefaultGunPointConfig()
	cfg.PerClassSize = 40
	d, err := synth.GunPoint(synth.NewRand(42), cfg)
	if err != nil {
		b.Fatal(err)
	}
	train, test, err = d.Split(synth.NewRand(7), 0.5)
	if err != nil {
		b.Fatal(err)
	}
	return train, test
}

// BenchmarkAblationECTSSupport compares strict vs relaxed ECTS training and
// evaluation at min-support 0 (the paper's Table 1 setting, where the two
// variants score identically).
func BenchmarkAblationECTSSupport(b *testing.B) {
	train, test := benchSplit(b)
	for _, relaxed := range []bool{false, true} {
		name := "strict"
		if relaxed {
			name = "relaxed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := etsc.Train(etsc.Spec{Algo: etsc.AlgoECTS, Params: map[string]any{"relaxed": relaxed}}, train)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := etsc.Evaluate(c, test, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTEASERNorm compares TEASER with (published, footnote-2)
// and without prefix z-normalization, on denormalized test data. The raw
// variant is both slower to decide and far less accurate.
func BenchmarkAblationTEASERNorm(b *testing.B) {
	train, test := benchSplit(b)
	denorm := test.Denormalize(synth.NewRand(99), 1.0)
	for _, znorm := range []bool{true, false} {
		name := "znorm-prefix"
		if !znorm {
			name = "raw-prefix"
		}
		b.Run(name, func(b *testing.B) {
			c, err := etsc.Train(etsc.Spec{Algo: etsc.AlgoTEASER, Params: map[string]any{"znorm": znorm}}, train)
			if err != nil {
				b.Fatal(err)
			}
			acc := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := etsc.Evaluate(c, denorm, 4)
				if err != nil {
					b.Fatal(err)
				}
				acc = s.Accuracy()
			}
			b.ReportMetric(acc, "denorm-accuracy")
		})
	}
}

// BenchmarkAblationTEASERConsistency sweeps TEASER's consecutive-agreement
// requirement v: larger v trades earliness for fewer premature commits.
func BenchmarkAblationTEASERConsistency(b *testing.B) {
	train, test := benchSplit(b)
	for _, v := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("v=%d", v), func(b *testing.B) {
			c, err := etsc.Train(etsc.Spec{Algo: etsc.AlgoTEASER, Params: map[string]any{"v": v}}, train)
			if err != nil {
				b.Fatal(err)
			}
			var acc, earliness float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := etsc.Evaluate(c, test, 4)
				if err != nil {
					b.Fatal(err)
				}
				acc, earliness = s.Accuracy(), s.MeanEarliness()
			}
			b.ReportMetric(acc, "accuracy")
			b.ReportMetric(earliness, "earliness")
		})
	}
}

// BenchmarkAblationDTWBand compares ED against DTW at several band radii on
// the classify substrate.
func BenchmarkAblationDTWBand(b *testing.B) {
	train, test := benchSplit(b)
	dists := []classify.Distance{
		classify.EuclideanDistance{},
		classify.DTWDistance{Radius: 3},
		classify.DTWDistance{Radius: 10},
		classify.DTWDistance{Radius: -1},
	}
	for _, d := range dists {
		b.Run(d.Name(), func(b *testing.B) {
			knn, err := classify.NewKNN(train, 1, d)
			if err != nil {
				b.Fatal(err)
			}
			sub := test.Sample(synth.NewRand(3), 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				knn.Evaluate(sub)
			}
		})
	}
}

// BenchmarkAblationEarlyAbandon measures the early-abandon win in a
// nearest-neighbour scan.
func BenchmarkAblationEarlyAbandon(b *testing.B) {
	train, test := benchSplit(b)
	query := test.Instances[0].Series
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			best := 1e308
			for _, in := range train.Instances {
				if d := ts.SquaredEuclidean(query, in.Series); d < best {
					best = d
				}
			}
		}
	})
	b.Run("early-abandon", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			best := 1e308
			for _, in := range train.Instances {
				if d, ok := ts.SquaredEuclideanEA(query, in.Series, best); ok && d < best {
					best = d
				}
			}
		}
	})
}

// --- engine benches: incremental vs from-scratch, serial vs parallel --------

// replayFromScratch is the pre-engine evaluation loop: the pure
// ClassifyPrefix path recomputes every training-set distance for every
// prefix length. The incremental path (etsc.RunOne via OpenSession) must
// beat it on the same workload — that delta is the engine's reason to
// exist.
func replayFromScratch(c etsc.EarlyClassifier, series []float64, step int) {
	full := c.FullLength()
	if full > len(series) {
		full = len(series)
	}
	for l := step; l <= full; l += step {
		if d := c.ClassifyPrefix(series[:l]); d.Ready {
			return
		}
	}
	c.ForcedLabel(series[:full])
}

// BenchmarkEngineIncrementalVsPure pits the incremental session path
// against the from-scratch ClassifyPrefix replay over a full test set, for
// the classifiers whose sessions carry running accumulator state.
func BenchmarkEngineIncrementalVsPure(b *testing.B) {
	train, test := benchSplit(b)
	builds := []struct{ name, spec string }{
		{"ECTS", "ects"},
		{"TEASER", "teaser"},
		{"ProbThreshold", "probthreshold:threshold=0.8,minprefix=5"},
	}
	for _, bc := range builds {
		c, err := etsc.TrainSpecString(bc.spec, train)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name+"/from-scratch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, in := range test.Instances {
					replayFromScratch(c, in.Series, 4)
				}
			}
		})
		b.Run(bc.name+"/incremental", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, in := range test.Instances {
					etsc.RunOne(c, in.Series, 4)
				}
			}
		})
	}
}

// BenchmarkMonitorEngine measures the two engine wins on the monitor hot
// path: sessions over from-scratch replay, and candidate fan-out over the
// worker pool. "from-scratch-serial" reproduces the pre-engine monitor
// inner loop; the Run variants use the incremental engine at increasing
// worker counts. All variants produce identical detections.
func BenchmarkMonitorEngine(b *testing.B) {
	train, _ := benchSplit(b)
	c, err := etsc.Train(etsc.MustParseSpec("teaser"), train)
	if err != nil {
		b.Fatal(err)
	}
	data := randomSeries(8_000, 5)
	L := c.FullLength()
	b.Run("from-scratch-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for start := 0; start+L <= len(data); start += 8 {
				replayFromScratch(c, data[start:start+L], 8)
			}
		}
		b.SetBytes(int64(len(data) * 8))
	})
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("incremental-workers=%d", workers)
		if workers == 0 {
			name = "incremental-workers=NumCPU"
		}
		mon := &stream.Monitor{Classifier: c, Stride: 8, Step: 8, Suppress: 75, Parallelism: workers}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mon.Run(data); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(data) * 8))
		})
	}
}

// BenchmarkLOOCVParallel measures worker-pool scaling on leave-one-out
// cross-validation under the quadratic-cost DTW distance.
func BenchmarkLOOCVParallel(b *testing.B) {
	train, _ := benchSplit(b)
	dist := classify.DTWDistance{Radius: 10}
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=NumCPU"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				classify.LeaveOneOutParallel(train, dist, workers)
			}
		})
	}
}

// BenchmarkPrefixSweepParallel measures worker-pool scaling on the Fig. 9
// per-prefix evaluation.
func BenchmarkPrefixSweepParallel(b *testing.B) {
	train, test := benchSplit(b)
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=NumCPU"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := classify.PrefixSweepParallel(train, test, 20, train.SeriesLen(), 10, true,
					classify.EuclideanDistance{}, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- hub benches: multi-stream scaling --------------------------------------

// BenchmarkHubScaling drives the hub.DemoStreams workload (the three demo
// stream kinds round-robined over 16 streams) through the hub across a
// worker grid. Per-stream output is byte-identical at every worker count
// (the golden test pins that); this bench shows what the workers buy in
// aggregate throughput — the acceptance target is >2× at 8 workers vs 1.
func BenchmarkHubScaling(b *testing.B) {
	kinds, err := hub.DemoKinds(17)
	if err != nil {
		b.Fatal(err)
	}
	const nStreams = 16
	const perStream = 6_000
	gens, err := hub.DemoStreams(kinds, 17, nStreams, perStream)
	if err != nil {
		b.Fatal(err)
	}
	totalPoints, maxLen := 0, 0
	for _, g := range gens {
		totalPoints += len(g.Data)
		if len(g.Data) > maxLen {
			maxLen = len(g.Data)
		}
	}
	const batch = 64
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("streams=%d/workers=%d", nStreams, workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h, err := hub.New(hub.Config{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, g := range gens {
					if err := h.Attach(g.ID, g.Config); err != nil {
						b.Fatal(err)
					}
				}
				// Round-robin pushes so streams genuinely interleave, the
				// way concurrent producers would drive a deployed hub.
				// Generators overshoot perStream; run to the longest stream
				// so every counted point is actually pushed.
				for off := 0; off < maxLen; off += batch {
					for _, g := range gens {
						if off >= len(g.Data) {
							continue
						}
						end := off + batch
						if end > len(g.Data) {
							end = len(g.Data)
						}
						if err := h.Push(g.ID, g.Data[off:end]); err != nil {
							b.Fatal(err)
						}
					}
				}
				if _, err := h.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(totalPoints * 8))
		})
	}
}

// --- micro-benchmarks of the hot kernels ------------------------------------

func randomSeries(n int, seed int64) ts.Series {
	rng := synth.NewRand(seed)
	s := make(ts.Series, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func BenchmarkSquaredEuclidean150(b *testing.B) {
	x := randomSeries(150, 1)
	y := randomSeries(150, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts.SquaredEuclidean(x, y)
	}
}

func BenchmarkDTW150Band10(b *testing.B) {
	x := randomSeries(150, 1)
	y := randomSeries(150, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts.DTW(x, y, 10)
	}
}

func BenchmarkZNorm150(b *testing.B) {
	x := randomSeries(150, 1)
	dst := make(ts.Series, 150)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts.ZNormInto(dst, x)
	}
}

func BenchmarkDistanceProfile100k(b *testing.B) {
	stream := randomSeries(100_000, 3)
	query := randomSeries(120, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ts.DistanceProfile(query, stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonitorThroughput(b *testing.B) {
	train, _ := benchSplit(b)
	c, err := etsc.Train(etsc.MustParseSpec("teaser"), train)
	if err != nil {
		b.Fatal(err)
	}
	data := randomSeries(20_000, 5)
	mon := &stream.Monitor{Classifier: c, Stride: 8, Step: 8, Suppress: 75}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.Run(data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(data) * 8))
}
