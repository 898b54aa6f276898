package core

import (
	"math"
	"testing"

	"etsc/internal/stats"
	"etsc/internal/synth"
	"etsc/internal/ts"
)

func lex(t testing.TB) []LexiconEntry {
	t.Helper()
	return []LexiconEntry{
		{Name: "cat", Tokens: []string{"K", "AE", "T"}, Rank: 100},
		{Name: "catalog", Tokens: []string{"K", "AE", "T", "AH", "L", "AO", "G"}, Rank: 500},
		{Name: "cattle", Tokens: []string{"K", "AE", "T", "L"}, Rank: 300},
		{Name: "bobcat", Tokens: []string{"B", "AH", "B", "K", "AE", "T"}, Rank: 2000},
		{Name: "kat", Tokens: []string{"K", "AE", "T"}, Rank: 5000},
		{Name: "dog", Tokens: []string{"D", "AO", "G"}, Rank: 90},
	}
}

func TestAnalyzeLexiconConfusability(t *testing.T) {
	entries := lex(t)
	z, err := stats.NewZipf(1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeLexiconConfusability(entries[0], entries, z)
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]PatternRelation{}
	for _, c := range rep.Confusions {
		rels[c.Entry.Name] = c.Relation
	}
	if rels["catalog"] != PrefixOf {
		t.Errorf("catalog relation %v, want prefix", rels["catalog"])
	}
	if rels["cattle"] != PrefixOf {
		t.Errorf("cattle relation %v, want prefix", rels["cattle"])
	}
	if rels["bobcat"] != Includes {
		t.Errorf("bobcat relation %v, want inclusion", rels["bobcat"])
	}
	if rels["kat"] != HomophoneOf {
		t.Errorf("kat relation %v, want homophone", rels["kat"])
	}
	if _, ok := rels["dog"]; ok {
		t.Error("dog should be unrelated")
	}
	// Zipf weighting: cattle (rank 300) occurs 1/3 as often as cat (100).
	for _, c := range rep.Confusions {
		if c.Entry.Name == "cattle" && math.Abs(c.FrequencyWeight-1.0/3.0) > 1e-9 {
			t.Errorf("cattle weight %v, want 1/3", c.FrequencyWeight)
		}
	}
	if rep.ExpectedFalseTriggersPerTarget <= 0 {
		t.Error("expected false triggers should be positive")
	}
	// Confusions sorted by frequency weight descending.
	for i := 1; i < len(rep.Confusions); i++ {
		if rep.Confusions[i].FrequencyWeight > rep.Confusions[i-1].FrequencyWeight {
			t.Error("confusions not sorted by weight")
		}
	}
}

func TestAnalyzeLexiconNilZipf(t *testing.T) {
	entries := lex(t)
	rep, err := AnalyzeLexiconConfusability(entries[0], entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Confusions {
		if c.FrequencyWeight != 1 {
			t.Errorf("nil-zipf weight %v, want 1", c.FrequencyWeight)
		}
	}
	if _, err := AnalyzeLexiconConfusability(LexiconEntry{Name: "x"}, entries, nil); err == nil {
		t.Error("empty target should error")
	}
}

func TestRelationString(t *testing.T) {
	for rel, want := range map[PatternRelation]string{
		Unrelated: "unrelated", PrefixOf: "prefix", Includes: "inclusion", HomophoneOf: "homophone",
	} {
		if rel.String() != want {
			t.Errorf("%d.String() = %q", rel, rel.String())
		}
	}
}

func TestProbeHomophones(t *testing.T) {
	rng := synth.NewRand(3)
	// An exemplar with a distinctive shape and a dissimilar sibling.
	exemplar := make(ts.Series, 50)
	sibling := make(ts.Series, 50)
	for i := range exemplar {
		x := float64(i) / 50
		exemplar[i] = math.Sin(2 * math.Pi * 2 * x)
		sibling[i] = math.Sin(2*math.Pi*2*x) + 0.8*math.Sin(2*math.Pi*5*x)
	}
	// Background containing a near-copy of the exemplar.
	bg := make(ts.Series, 5000)
	for i := range bg {
		bg[i] = rng.NormFloat64()
	}
	for i, v := range exemplar {
		bg[2000+i] = 3*v + 10 + rng.NormFloat64()*0.01
	}
	res, err := ProbeHomophones("bg", exemplar, []ts.Series{sibling}, bg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HomophonesExist() {
		t.Errorf("planted copy should beat the dissimilar sibling: %+v", res)
	}
	if len(res.NearestBackground) != 3 {
		t.Errorf("want 3 NN distances, got %d", len(res.NearestBackground))
	}
	if _, err := ProbeHomophones("bg", exemplar, nil, bg, 3); err == nil {
		t.Error("no siblings should error")
	}
	if _, err := ProbeHomophones("bg", exemplar, []ts.Series{sibling[:10]}, bg, 3); err == nil {
		t.Error("sibling length mismatch should error")
	}
}

func TestReportVerdicts(t *testing.T) {
	cost := CostModel{EventDamage: 1000, InterventionCost: 200, InterventionEfficacy: 1}

	// All-pass assessment.
	good := Evaluate(Assessment{
		Domain:        "good",
		Cost:          &cost,
		Measured:      &MeasuredDeployment{TP: 10, FP: 2},
		Confusability: &ConfusabilityReport{},
		Homophones:    []HomophoneResult{{Background: "x", NearestBackground: []float64{5}, IntraClassDist: 1}},
		Prior:         &PriorModel{EventsPerMillion: 100, WindowsPerMillion: 1000, PerWindowFPRate: 0.01},
		NormSens:      &NormSensitivity{Algorithm: "a", NormalizedAccuracy: 0.9, DenormalizedAccuracy: 0.88},
	})
	if got := good.Verdict(); got != Plausible {
		t.Errorf("verdict %v, want Plausible\n%s", got, good)
	}

	// A failing deployment.
	bad := Evaluate(Assessment{
		Domain:   "bad",
		Cost:     &cost,
		Measured: &MeasuredDeployment{TP: 1, FP: 500},
		NormSens: &NormSensitivity{Algorithm: "a", NormalizedAccuracy: 0.95, DenormalizedAccuracy: 0.6},
	})
	if got := bad.Verdict(); got != Meaningless {
		t.Errorf("verdict %v, want Meaningless\n%s", got, bad)
	}

	// Nothing supplied: questionable.
	unknown := Evaluate(Assessment{Domain: "unknown"})
	if got := unknown.Verdict(); got != Questionable {
		t.Errorf("verdict %v, want Questionable\n%s", got, unknown)
	}
}

func TestNormSensitivityBrittle(t *testing.T) {
	ns := NormSensitivity{NormalizedAccuracy: 0.95, DenormalizedAccuracy: 0.62}
	if !ns.Brittle(0.1) {
		t.Error("33-point drop should be brittle at tol 0.1")
	}
	if ns.Brittle(0.5) {
		t.Error("not brittle at tol 0.5")
	}
	if math.Abs(ns.Drop()-0.33) > 1e-9 {
		t.Errorf("drop %v", ns.Drop())
	}
}

func TestVerdictString(t *testing.T) {
	if Meaningless.String() != "MEANINGLESS" || Plausible.String() != "PLAUSIBLE" || Questionable.String() != "QUESTIONABLE" {
		t.Error("verdict names")
	}
}
