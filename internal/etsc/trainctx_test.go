package etsc

import (
	"fmt"
	"runtime"
	"testing"

	"etsc/internal/dataset"
)

// trainerPair names one algorithm variant with its two typed trainers: the
// serial reference (reftrain_test.go) and the production trainer behind the
// registry builder, which reads a TrainContext. The battery requires the
// two to produce models whose decisions are identical — prefix for prefix,
// instance for instance.
type trainerPair struct {
	name string
	ref  func(train *dataset.Dataset) (EarlyClassifier, error)
	with func(c *TrainContext) (EarlyClassifier, error)
}

// trainerPairs covers every algorithm in the package, including the
// variants whose training paths differ (relaxed ECTS, the KDE threshold
// learner, pooled RelClass, raw-prefix TEASER). EDSC, RelClass and
// ProbThreshold read nothing from the context: their reference is their
// one trainer run serially, and their context side is that trainer at the
// context's worker count or the registry builder over the shared context.
// Names match batterySpecs.
func trainerPairs() []trainerPair {
	rawTeaser := DefaultTEASERConfig()
	rawTeaser.ZNormPrefix = false
	viaContext := func(spec string) func(c *TrainContext) (EarlyClassifier, error) {
		return func(c *TrainContext) (EarlyClassifier, error) {
			return Train(MustParseSpec(spec), nil, WithTrainContext(c))
		}
	}
	return []trainerPair{
		{"ECTS",
			func(d *dataset.Dataset) (EarlyClassifier, error) { return refTrainECTS(d, false, 0) },
			func(c *TrainContext) (EarlyClassifier, error) { return trainECTS(c, false, 0) }},
		{"RelaxedECTS",
			func(d *dataset.Dataset) (EarlyClassifier, error) { return refTrainECTS(d, true, 1) },
			func(c *TrainContext) (EarlyClassifier, error) { return trainECTS(c, true, 1) }},
		{"EDSC-CHE",
			func(d *dataset.Dataset) (EarlyClassifier, error) { return newEDSC(d, batteryEDSCConfig(CHE, d), 1) },
			func(c *TrainContext) (EarlyClassifier, error) {
				return newEDSC(c.Train(), batteryEDSCConfig(CHE, c.Train()), c.Workers())
			}},
		{"EDSC-KDE",
			func(d *dataset.Dataset) (EarlyClassifier, error) { return newEDSC(d, batteryEDSCConfig(KDE, d), 1) },
			func(c *TrainContext) (EarlyClassifier, error) {
				return newEDSC(c.Train(), batteryEDSCConfig(KDE, c.Train()), c.Workers())
			}},
		{"RelClass",
			func(d *dataset.Dataset) (EarlyClassifier, error) {
				return trainRelClass(d, DefaultRelClassConfig(false))
			},
			viaContext("relclass:pooled=false")},
		{"LDG-RelClass",
			func(d *dataset.Dataset) (EarlyClassifier, error) {
				return trainRelClass(d, DefaultRelClassConfig(true))
			},
			viaContext("relclass:pooled=true")},
		{"ECDIRE",
			func(d *dataset.Dataset) (EarlyClassifier, error) { return refTrainECDIRE(d, DefaultECDIREConfig()) },
			func(c *TrainContext) (EarlyClassifier, error) { return trainECDIRE(c, DefaultECDIREConfig()) }},
		{"TEASER",
			func(d *dataset.Dataset) (EarlyClassifier, error) { return refTrainTEASER(d, DefaultTEASERConfig()) },
			func(c *TrainContext) (EarlyClassifier, error) { return trainTEASER(c, DefaultTEASERConfig()) }},
		{"TEASER-raw",
			func(d *dataset.Dataset) (EarlyClassifier, error) { return refTrainTEASER(d, rawTeaser) },
			func(c *TrainContext) (EarlyClassifier, error) { return trainTEASER(c, rawTeaser) }},
		{"ProbThreshold",
			func(d *dataset.Dataset) (EarlyClassifier, error) { return trainProbThreshold(d, 0.8, 5) },
			viaContext("probthreshold:threshold=0.8,minprefix=5")},
		{"FixedPrefix",
			func(d *dataset.Dataset) (EarlyClassifier, error) { return refTrainFixedPrefix(d, 20, true) },
			func(c *TrainContext) (EarlyClassifier, error) { return trainFixedPrefix(c, 20, true) }},
		{"CostAware",
			func(d *dataset.Dataset) (EarlyClassifier, error) {
				return refTrainCostAware(d, DefaultCostAwareConfig())
			},
			func(c *TrainContext) (EarlyClassifier, error) { return trainCostAware(c, DefaultCostAwareConfig()) }},
	}
}

// serialContext is the one-worker context Train(spec, train) builds, for
// tests that call a typed trainer directly.
func serialContext(tb testing.TB, train *dataset.Dataset) *TrainContext {
	tb.Helper()
	c, err := NewTrainContext(train, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// batteryEDSCConfig sizes EDSC's candidate lengths to the dataset so the
// same pair definition runs on both battery datasets, as batterySpecs does.
func batteryEDSCConfig(m ThresholdMethod, d *dataset.Dataset) EDSCConfig {
	cfg := DefaultEDSCConfig(m)
	if d.SeriesLen() < cfg.MaxLen {
		cfg.MinLen = 10
		cfg.MaxLen = 30
	}
	return cfg
}

// TestTrainEquivalenceBattery is the typed trainers' core property: for
// every algorithm, training through a shared TrainContext — memoized
// distance matrix, shared prefix cache, parallel fan-out — produces a model
// whose decisions agree with the serial reference trainer prefix-for-prefix,
// for workers ∈ {1, 4, GOMAXPROCS}. One context is shared by all trainers
// per (dataset, workers) cell, so cross-trainer cache reuse is under test
// too. The reference model must also equal Train over the variant's
// batterySpecs row, which pins each builder's parameter-to-config mapping.
func TestTrainEquivalenceBattery(t *testing.T) {
	type split struct {
		name        string
		train, test *dataset.Dataset
	}
	eTrain, eTest := easySplit(t)
	gTrain, gTest := smallGunPointSplit(t)
	splits := []split{{"easy", eTrain, eTest}, {"gunpoint", gTrain, gTest}}
	pairs := trainerPairs()

	for _, sp := range splits {
		specs := map[string]string{}
		for _, row := range batterySpecs(sp.train) {
			specs[row.name] = row.spec
		}
		// Reference models, trained once per dataset.
		ref := make([]EarlyClassifier, len(pairs))
		for pi, p := range pairs {
			c, err := p.ref(sp.train)
			if err != nil {
				t.Fatalf("%s/%s ref: %v", sp.name, p.name, err)
			}
			ref[pi] = c
			spec, ok := specs[p.name]
			if !ok {
				t.Fatalf("%s: no batterySpecs row", p.name)
			}
			viaSpec, err := Train(MustParseSpec(spec), sp.train)
			if err != nil {
				t.Fatalf("%s/%s Train(%q): %v", sp.name, p.name, spec, err)
			}
			assertEquivalent(t, sp.name+"/"+p.name+"/spec", c, viaSpec, sp.test)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			ctx, err := NewTrainContext(sp.train, workers)
			if err != nil {
				t.Fatal(err)
			}
			for pi, p := range pairs {
				got, err := p.with(ctx)
				if err != nil {
					t.Fatalf("%s/%s workers=%d with: %v", sp.name, p.name, workers, err)
				}
				assertEquivalent(t, fmt.Sprintf("%s/%s/workers=%d", sp.name, p.name, workers), ref[pi], got, sp.test)
			}
		}
	}
}

// TestTrainContextValidation covers the constructor's input checks.
func TestTrainContextValidation(t *testing.T) {
	if _, err := NewTrainContext(nil, 0); err == nil {
		t.Error("nil train accepted")
	}
	if _, err := NewTrainContext(&dataset.Dataset{}, 0); err == nil {
		t.Error("empty train accepted")
	}
}

// TestTrainContextPrefixesCached pins the cache contract: repeated Prefixes
// calls return the same shared dataset, equal to a direct Truncate, and
// invalid lengths surface Truncate's error.
func TestTrainContextPrefixesCached(t *testing.T) {
	train, _ := easySplit(t)
	ctx, err := NewTrainContext(train, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctx.Prefixes(20, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Prefixes(20, true)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Prefixes(20, true) not cached: distinct datasets returned")
	}
	want, err := train.Truncate(20, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Instances {
		for j := range want.Instances[i].Series {
			if a.Instances[i].Series[j] != want.Instances[i].Series[j] {
				t.Fatalf("cached prefix differs from Truncate at instance %d point %d", i, j)
			}
		}
	}
	raw, err := ctx.Prefixes(20, false)
	if err != nil {
		t.Fatal(err)
	}
	if raw == a {
		t.Error("raw and renormalized prefixes share a cache entry")
	}
	if _, err := ctx.Prefixes(0, true); err == nil {
		t.Error("Prefixes(0) accepted")
	}
	if ctx.Train() != train || ctx.Workers() != 2 {
		t.Error("accessor contract broken")
	}
}
