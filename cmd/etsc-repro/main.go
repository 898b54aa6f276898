// Command etsc-repro regenerates every table and figure of "When is Early
// Classification of Time Series Meaningful?" from the synthetic substrates
// in this repository.
//
// Usage:
//
//	etsc-repro [-quick] [-seed N] [-run fig1,fig2,...] [-workers N]
//	etsc-repro -spec ects:support=0 -spec teaser:v=2 [-quick]
//
// With no -run flag every experiment runs, in paper order. Output is the
// text tables recorded in EXPERIMENTS.md.
//
// -workers sizes every worker pool, including the one training context
// each algorithm suite shares. Output is identical for every value, apart
// from the "(name in …)" timing lines.
//
// The repeatable -spec flag names classifiers declaratively (see
// etsc.ParseSpec: "algo:key=value,..." over the registered algorithm
// names) and evaluates them on the standard GunPoint-like split via the
// speceval experiment; giving -spec without -run runs only speceval.
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"etsc/internal/etsc"
	"etsc/internal/experiments"
)

type runner struct {
	name string
	desc string
	run  func(experiments.Config) (fmt.Stringer, error)
}

// tabler adapts the per-experiment Table() string method to fmt.Stringer.
type tabler interface{ Table() string }

func wrap[T tabler](f func(experiments.Config) (T, error)) func(experiments.Config) (fmt.Stringer, error) {
	return func(cfg experiments.Config) (fmt.Stringer, error) {
		r, err := f(cfg)
		if err != nil {
			// The result may still be renderable for diagnosis. The
			// runners return typed nil pointers on hard errors, which stay
			// non-nil through the any() conversion — compare via reflect.
			var s fmt.Stringer
			if rv := reflect.ValueOf(any(r)); rv.Kind() == reflect.Pointer && !rv.IsNil() {
				s = stringerFunc(r.Table)
			}
			return s, err
		}
		return stringerFunc(r.Table), nil
	}
}

type stringerFunc func() string

func (f stringerFunc) String() string { return f() }

func main() {
	quick := flag.Bool("quick", false, "reduced sizes (seconds instead of minutes)")
	seed := flag.Int64("seed", 42, "generator seed")
	run := flag.String("run", "", "comma-separated experiment names (default: all)")
	workers := flag.Int("workers", 0, "worker pool size for parallel training and evaluation (0 = NumCPU, 1 = serial; results identical)")
	var specs []etsc.Spec
	flag.Func("spec", "classifier spec for the speceval experiment (repeatable; algo:key=value,... — see -listspecs)", func(s string) error {
		spec, err := etsc.ParseSpec(s)
		if err != nil {
			return err
		}
		if _, ok := etsc.Lookup(spec.Algo); !ok {
			return fmt.Errorf("unknown algorithm %q (registered: %s)", spec.Algo, strings.Join(etsc.Algorithms(), ", "))
		}
		specs = append(specs, spec)
		return nil
	})
	listSpecs := flag.Bool("listspecs", false, "print the registered algorithms with their spec parameters and exit")
	flag.Parse()
	if *listSpecs {
		for _, line := range etsc.AlgorithmDocs() {
			fmt.Println(line)
		}
		return
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "etsc-repro: -workers must be >= 0 (0 = NumCPU), got %d\n", *workers)
		os.Exit(2)
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick, Parallelism: *workers}

	all := []runner{
		{"fig1", "cat/dog utterances in the UCR format", wrap(experiments.RunFig1)},
		{"fig2", "the Cathy's-dogmatic-catechism streaming sentence", wrap(experiments.RunFig2)},
		{"fig3", "early classification traces (TEASER and user threshold)", wrap(experiments.RunFig3)},
		{"fig5", "time series homophones in non-gesture data", wrap(experiments.RunFig5)},
		{"table1", "normalized vs denormalized accuracy of six ETSC algorithms", wrap(experiments.RunTable1)},
		{"table1ext", "extended: threshold/cost-aware/ECDIRE/TEASER-raw variants", wrap(experiments.RunTable1Extended)},
		{"fig7", "raw ECG per-beat mean/std wander", wrap(experiments.RunFig7)},
		{"fig8", "dustbathing template vs truncated template", wrap(experiments.RunFig8)},
		{"fig9", "prefix-length error sweep on GunPoint", wrap(experiments.RunFig9)},
		{"appendixb", "deployed monitor economics (FP:TP vs break-even)", wrap(experiments.RunAppendixB)},
		{"speceval", "declarative -spec suite on the GunPoint split", wrap(func(cfg experiments.Config) (*experiments.SpecEvalResult, error) {
			return experiments.RunSpecEval(cfg, specs)
		})},
	}

	selected := map[string]bool{}
	if *run != "" {
		for _, n := range strings.Split(*run, ",") {
			selected[strings.TrimSpace(strings.ToLower(n))] = true
		}
		// Giving -spec always runs the spec evaluation, even when -run
		// names other experiments; silently dropping it would be worse.
		if len(specs) > 0 {
			selected["speceval"] = true
		}
	} else if len(specs) > 0 {
		// -spec without -run means "evaluate exactly these specs".
		selected["speceval"] = true
	} else {
		// The default full paper sweep does not include the ad-hoc runner.
		for _, r := range all {
			if r.name != "speceval" {
				selected[r.name] = true
			}
		}
	}

	failures := 0
	for _, r := range all {
		if len(selected) > 0 && !selected[r.name] {
			continue
		}
		fmt.Printf("==== %s — %s (seed %d, quick=%v)\n\n", r.name, r.desc, *seed, *quick)
		start := time.Now()
		out, err := r.run(cfg)
		if out != nil {
			fmt.Println(out.String())
		}
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", r.name, err)
		}
		fmt.Printf("(%s in %v)\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed their paper-claim checks\n", failures)
		os.Exit(1)
	}
}
