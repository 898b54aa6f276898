// BenchmarkTrainAll measures training the paper's full 8-algorithm suite on
// one training set, unshared (every Train builds its own one-worker
// TrainContext and materializes what its trainer reads) versus through one
// shared etsc.TrainContext (one memoized prefix-distance matrix + prefix
// cache, parallel trainers) at several worker counts. The trained models
// are identical (the registry-equivalence battery pins that); this bench is
// the wall-clock side of the contract. CI runs it at -benchtime=1x -count 5
// and appends the output to BENCH_train.json so training-path regressions
// are visible per PR.
//
// The BENCH_train.json trajectory breaks at the "unshared" cell: its
// earlier records name a "direct" cell, in which each trainer recomputed
// its own distances serially without a context. The shared/workers=N
// cells keep their names.
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
	b.Run("unshared", func(b *testing.B) {
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
