package experiments

import (
	"strings"
	"testing"
)

// The Table() renderers are the repository's user-facing "figures"; these
// tests pin their key content so regressions in formatting or in the
// result plumbing are caught.

func TestTable1Rendering(t *testing.T) {
	r, err := RunTable1(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Table()
	for _, want := range []string{
		"TABLE 1",
		"ECTS(support=0)",
		"RelaxedECTS(support=0)",
		"EDSC-CHE",
		"EDSC-KDE",
		"RelClass(tau=0.1)",
		"LDG-RelClass(tau=0.1)",
		"TEASER(S=20,v=3)",
		"footnote 2",
		"Shifted", // Fig. 6 annotation style
	} {
		if !strings.Contains(out, want) && !strings.Contains(out, strings.ToLower(want)) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

// TestTablesIdenticalAcrossParallelism pins DESIGN's promise of identical
// tables for every worker count on the runners that train through a shared
// TrainContext, whose pool Parallelism also sizes. The speceval Train
// column is wall-clock time, so it is zeroed before rendering.
func TestTablesIdenticalAcrossParallelism(t *testing.T) {
	render := func(workers int) []string {
		cfg := QuickConfig()
		cfg.Parallelism = workers
		t1, err := RunTable1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := RunTable1Extended(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := RunSpecEval(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range spec.Rows {
			spec.Rows[i].TrainTime = 0
		}
		return []string{t1.Table(), ext.Table(), spec.Table()}
	}
	serial, parallel := render(1), render(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("table differs between Parallelism 1 and 4:\n%s\nvs\n%s", serial[i], parallel[i])
		}
	}
}

func TestFig2Rendering(t *testing.T) {
	r, err := RunFig2(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Table()
	for _, want := range []string{"FIG 2", "cathys", "dogmatic", "catechism", "recanted"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig8Rendering(t *testing.T) {
	r, err := RunFig8(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Table()
	for _, want := range []string{"FIG 8", "dustbathing template", "truncated template", "z-test", "NOT significantly"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig 8 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig9Rendering(t *testing.T) {
	r, err := RunFig9(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Table()
	for _, want := range []string{"FIG 9", "best prefix", "full length", "keeping only"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig 9 output missing %q:\n%s", want, out)
		}
	}
	// The ASCII plot must actually contain plotted points.
	if !strings.Contains(out, "*") {
		t.Error("Fig 9 ASCII plot is empty")
	}
}

func TestAppendixBRendering(t *testing.T) {
	r, err := RunAppendixB(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Table()
	for _, want := range []string{"APPENDIX B", "FP per TP", "break-even", "MEANINGLESS"} {
		if !strings.Contains(out, want) {
			t.Errorf("Appendix B output missing %q:\n%s", want, out)
		}
	}
}
