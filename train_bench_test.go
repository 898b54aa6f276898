// BenchmarkTrainAll measures training the paper's full 8-algorithm suite on
// one training set, direct (every trainer recomputing its own distances,
// serially) versus through a shared etsc.TrainContext (one memoized
// prefix-distance matrix + prefix cache, parallel trainers) at several
// worker counts. The trained models are identical (the registry-equivalence
// battery pins that); this bench is the wall-clock side of the contract —
// the acceptance target is >= 2× at 4 workers. CI runs it at -benchtime=1x
// and appends the output to BENCH_train.json so training-path regressions
// are visible per PR.
package etsc_test

import (
	"fmt"
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/etsc"
)

// trainSuite trains the paper's full 8-algorithm suite through Train with
// the given options.
func trainSuite(b *testing.B, train *dataset.Dataset, opts ...etsc.Option) {
	b.Helper()
	for _, spec := range []string{
		"ects",
		"edsc:method=che",
		"relclass",
		"ecdire",
		"teaser",
		"probthreshold:threshold=0.8,minprefix=10",
		fmt.Sprintf("fixedprefix:at=%d,znorm=true", train.SeriesLen()/3),
		"costaware",
	} {
		if _, err := etsc.TrainSpecString(spec, train, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainAll(b *testing.B) {
	train, _ := benchSplit(b)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trainSuite(b, train)
		}
	})
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shared/workers=%d", workers), func(b *testing.B) {
			// Context construction and matrix materialization are part of
			// the measured cost — that is the deployment shape.
			for i := 0; i < b.N; i++ {
				ctx, err := etsc.NewTrainContext(train, workers)
				if err != nil {
					b.Fatal(err)
				}
				trainSuite(b, train, etsc.WithTrainContext(ctx))
			}
		})
	}
}
