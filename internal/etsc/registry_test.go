package etsc

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"etsc/internal/dataset"
)

// batterySpecs names every registered algorithm, including the variants
// whose training paths differ (relaxed ECTS, KDE thresholds, pooled
// RelClass, raw-prefix TEASER). The EDSC rows spell out the builder's whole
// parameter surface, with candidate lengths sized to the dataset so one
// table runs on both battery datasets.
func batterySpecs(d *dataset.Dataset) []struct{ name, spec string } {
	lens := "minlen=15,maxlen=60"
	if d.SeriesLen() < 60 {
		lens = "minlen=10,maxlen=30"
	}
	edsc := "lenstep=15,stride=8,maxseries=30,chek=1.5,kdeodds=2,maxshapelets=40," + lens
	return []struct{ name, spec string }{
		{"ECTS", "ects:relaxed=false,support=0"},
		{"RelaxedECTS", "ects:relaxed=true,support=1"},
		{"EDSC-CHE", "edsc:method=che," + edsc},
		{"EDSC-KDE", "edsc:method=kde," + edsc},
		{"RelClass", "relclass:tau=0.1,pooled=false,samples=64,minstd=0.35,seed=5,minprefix=10"},
		{"LDG-RelClass", "relclass:tau=0.1,pooled=true,samples=64,minstd=0.35,seed=5,minprefix=10"},
		{"ECDIRE", "ecdire:acc=0.9,snapshots=20,sharpness=3"},
		{"CostAware", "costaware:misclass=1,delay=0.5,snapshots=20"},
		{"TEASER", "teaser:snapshots=20,v=3,znorm=true,sigma=2.5"},
		{"TEASER-raw", "teaser:snapshots=20,v=3,znorm=false,sigma=2.5"},
		{"ProbThreshold", "probthreshold:threshold=0.8,minprefix=5"},
		{"FixedPrefix", "fixedprefix:at=20,znorm=true"},
	}
}

// TestRegistryEquivalenceBattery is the construction API's core contract:
// for every algorithm, Train(spec, train) — a private one-worker context —
// is byte-identical to training over a shared caller context
// (WithTrainContext), for workers ∈ {1, 4, GOMAXPROCS} on both battery
// datasets. One TrainContext
// per (dataset, workers) cell is shared by every algorithm, so
// cross-trainer cache reuse is under test too.
func TestRegistryEquivalenceBattery(t *testing.T) {
	type split struct {
		name        string
		train, test *dataset.Dataset
		ctxs        []*TrainContext // one per workers entry
	}
	eTrain, eTest := easySplit(t)
	gTrain, gTest := smallGunPointSplit(t)
	splits := []*split{{name: "easy", train: eTrain, test: eTest}, {name: "gunpoint", train: gTrain, test: gTest}}
	workers := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, sp := range splits {
		for _, w := range workers {
			ctx, err := NewTrainContext(sp.train, w)
			if err != nil {
				t.Fatal(err)
			}
			sp.ctxs = append(sp.ctxs, ctx)
		}
	}

	for ai, row := range batterySpecs(eTrain) {
		ai := ai
		t.Run(row.name, func(t *testing.T) {
			for _, sp := range splits {
				spec, err := ParseSpec(batterySpecs(sp.train)[ai].spec)
				if err != nil {
					t.Fatal(err)
				}
				name := sp.name + "/" + spec.String()
				serial, err := Train(spec, sp.train)
				if err != nil {
					t.Fatalf("%s serial: %v", name, err)
				}
				for wi, w := range workers {
					got, err := Train(spec, nil, WithTrainContext(sp.ctxs[wi]))
					if err != nil {
						t.Fatalf("%s ctx workers=%d: %v", name, w, err)
					}
					assertEquivalent(t, fmt.Sprintf("%s/ctx=%d", name, w), serial, got, sp.test)
				}
			}
		})
	}
}

// assertEquivalent compares two models decision-for-decision and
// posterior-for-posterior: the full per-length ClassifyPrefix transcript,
// incremental sessions, and PosteriorPrefix maps
// (when implemented) bit-for-bit on a few exemplars, plus the RunOne
// commitment triple on every test exemplar.
func assertEquivalent(t *testing.T, name string, want, got EarlyClassifier, test *dataset.Dataset) {
	t.Helper()
	if want.FullLength() != got.FullLength() {
		t.Fatalf("%s: full length %d != %d", name, got.FullLength(), want.FullLength())
	}
	full := want.FullLength()
	const step = 3
	wpp, wok := want.(PosteriorProvider)
	gpp, gok := got.(PosteriorProvider)
	if wok != gok {
		t.Fatalf("%s: posterior support differs: want %v, got %v", name, wok, gok)
	}
	for i, in := range test.Instances {
		if i < 2 {
			for l := 1; l <= full; l++ {
				dw := want.ClassifyPrefix(in.Series[:l])
				dg := got.ClassifyPrefix(in.Series[:l])
				if dw != dg {
					t.Fatalf("%s instance %d length %d: want %+v, got %+v", name, i, l, dw, dg)
				}
			}
			ws, gs := OpenSession(want), OpenSession(got)
			prev := 0
			for l := step; l <= full; l += step {
				dw := ws.Extend(in.Series[prev:l])
				dg := gs.Extend(in.Series[prev:l])
				if dw != dg {
					t.Fatalf("%s instance %d session length %d: want %+v, got %+v",
						name, i, l, dw, dg)
				}
				prev = l
			}
			if wok {
				for l := step; l <= full; l += step {
					pw := wpp.PosteriorPrefix(in.Series[:l])
					pg := gpp.PosteriorPrefix(in.Series[:l])
					assertSamePosterior(t, name, i, l, pw, pg)
				}
			}
		}
		wl, wn, wf := RunOne(want, in.Series, 4)
		gl, gn, gf := RunOne(got, in.Series, 4)
		if wl != gl || wn != gn || wf != gf {
			t.Fatalf("%s instance %d: want (label=%d len=%d forced=%v), got (label=%d len=%d forced=%v)",
				name, i, wl, wn, wf, gl, gn, gf)
		}
	}
}

// assertSamePosterior requires bit-identical posterior maps.
func assertSamePosterior(t *testing.T, name string, inst, l int, want, got map[int]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s instance %d length %d: posterior sizes %d != %d", name, inst, l, len(got), len(want))
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok || math.Float64bits(wv) != math.Float64bits(gv) {
			t.Fatalf("%s instance %d length %d class %d: posterior %v != %v", name, inst, l, k, gv, wv)
		}
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("ects:support=0.0, relaxed=true")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Algo != "ects" || spec.Params["support"] != 0.0 || spec.Params["relaxed"] != true {
		t.Fatalf("parsed %+v", spec)
	}
	if spec, err = ParseSpec("TEASER"); err != nil || spec.Algo != "teaser" || spec.Params != nil {
		t.Fatalf("bare algo parsed %+v, %v", spec, err)
	}
	if spec, err = ParseSpec("edsc:method=kde"); err != nil || spec.Params["method"] != "kde" {
		t.Fatalf("string param parsed %+v, %v", spec, err)
	}
	for _, bad := range []string{"", ":a=1", "ects:support", "ects:=3"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestSpecRoundTrip pins the two serialized forms: flag string and JSON.
func TestSpecRoundTrip(t *testing.T) {
	orig := MustParseSpec("relclass:tau=0.1,pooled=true,samples=64,minprefix=10")
	// Flag form: String then ParseSpec reproduces the spec.
	back, err := ParseSpec(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != orig.String() {
		t.Fatalf("flag round-trip %q != %q", back.String(), orig.String())
	}
	// JSON form.
	raw, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON Spec
	if err := json.Unmarshal(raw, &fromJSON); err != nil {
		t.Fatal(err)
	}
	if fromJSON.String() != orig.String() {
		t.Fatalf("JSON round-trip %q != %q (raw %s)", fromJSON.String(), orig.String(), raw)
	}
	// The two serialized forms train identical models.
	train, test := easySplit(t)
	a, err := Train(orig, train)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(fromJSON, train)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, "json-roundtrip", a, b, test)
}

func TestTrainErrors(t *testing.T) {
	train, _ := easySplit(t)
	if _, err := Train(Spec{Algo: "nope"}, train); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("unknown algorithm: %v", err)
	}
	if _, err := Train(MustParseSpec("ects:suport=1"), train); err == nil || !strings.Contains(err.Error(), "unknown ects parameter") {
		t.Errorf("unknown parameter: %v", err)
	}
	if _, err := Train(MustParseSpec("ects:relaxed=3"), train); err == nil {
		t.Error("bad parameter type accepted")
	}
	if _, err := Train(MustParseSpec("ects:support=0.5"), train); err == nil {
		t.Error("fractional int accepted")
	}
	if _, err := Train(MustParseSpec("edsc:method=nope"), train); err == nil {
		t.Error("bad edsc method accepted")
	}
	// Non-finite numbers: NaN passes every trainer's range comparison, so
	// the parameter reader itself must refuse them.
	for _, bad := range []string{
		"relclass:tau=nan", "probthreshold:threshold=nan", "costaware:delay=inf",
		"ecdire:acc=nan", "teaser:sigma=nan", "costaware:misclass=-inf",
	} {
		if _, err := Train(MustParseSpec(bad), train); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("%s: %v, want a finite-number error", bad, err)
		}
	}
	if _, err := Train(MustParseSpec("ects"), nil); err == nil {
		t.Error("nil training set accepted")
	}
	ctx, err := NewTrainContext(train, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := smallGunPointSplit(t)
	if _, err := Train(MustParseSpec("ects"), other, WithTrainContext(ctx)); err == nil {
		t.Error("mismatched train/context accepted")
	}
}

// TestSpecSeed pins the "seed" spec parameter: relclass:seed=N trains the
// model trainRelClass builds with Seed N.
func TestSpecSeed(t *testing.T) {
	train, test := easySplit(t)
	viaParam, err := Train(MustParseSpec("relclass:seed=99"), train)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRelClassConfig(false)
	cfg.Seed = 99
	direct, err := trainRelClass(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, "seed-param", direct, viaParam, test)
}

func TestRegistryRegister(t *testing.T) {
	if err := Register(Builder{Name: "", Build: nil}); err == nil {
		t.Error("anonymous builder accepted")
	}
	if err := Register(Builder{Name: "ects", Build: func(*dataset.Dataset, *Params, *Options) (EarlyClassifier, error) {
		return nil, nil
	}}); err == nil {
		t.Error("duplicate registration accepted")
	}
	algos := Algorithms()
	want := []string{"costaware", "ecdire", "ects", "edsc", "fixedprefix", "probthreshold", "relclass", "teaser"}
	if len(algos) != len(want) {
		t.Fatalf("Algorithms() = %v, want %v", algos, want)
	}
	for i := range want {
		if algos[i] != want[i] {
			t.Fatalf("Algorithms() = %v, want %v", algos, want)
		}
	}
	if docs := AlgorithmDocs(); len(docs) != len(want) || !strings.HasPrefix(docs[2], "ects — ") {
		t.Errorf("AlgorithmDocs() = %v", docs)
	}
}

// TestOptionsAccessors covers the Options surface consumers read back.
func TestOptionsAccessors(t *testing.T) {
	train, _ := easySplit(t)
	if o := NewOptions(); o.TrainContext() != nil {
		t.Errorf("zero options: ctx=%v", o.TrainContext())
	}
	ctx, err := NewTrainContext(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	if o := NewOptions(WithTrainContext(ctx)); o.TrainContext() != ctx {
		t.Errorf("options: ctx=%v, want %v", o.TrainContext(), ctx)
	}
}
