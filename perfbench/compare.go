package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// savedRun is one run read back from saved benchmark output.
type savedRun struct {
	workload    string
	seed        string
	fingerprint string
	res         result
}

// parseRuns reads the standard output of any number of runs, concatenated:
// each run's header line names its workload, seed and input fingerprint,
// and its last line is the JSON result.
func parseRuns(r io.Reader) ([]savedRun, error) {
	var runs []savedRun
	var cur *savedRun
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "perfbench" {
			cur = &savedRun{workload: f[1]}
			for _, kv := range f[2:] {
				if v, ok := strings.CutPrefix(kv, "seed="); ok {
					cur.seed = v
				}
				if v, ok := strings.CutPrefix(kv, "inputs="); ok {
					cur.fingerprint = v
				}
			}
			continue
		}
		if cur != nil && strings.HasPrefix(line, "{") {
			if err := json.Unmarshal([]byte(line), &cur.res); err != nil {
				return nil, fmt.Errorf("bad result line: %w", err)
			}
			runs = append(runs, *cur)
			cur = nil
		}
	}
	return runs, sc.Err()
}

func readRuns(path string) ([]savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseRuns(f)
}

// compareMain compares the runs saved in two files metric by metric, per
// workload: medians, their change, and each side's quartile spread. It
// refuses, with exit code 1, runs of one workload and seed whose input
// fingerprints differ, so changed inputs never pass for a speed change.
func compareMain(out io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.log NEW.log")
		return 2
	}
	old, err := readRuns(args[0])
	if err == nil {
		var cur []savedRun
		cur, err = readRuns(args[1])
		if err == nil {
			err = compareRuns(out, old, cur)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	return 0
}

func compareRuns(out io.Writer, old, cur []savedRun) error {
	fps := map[string]string{}
	for _, r := range old {
		fps[r.workload+" "+r.seed] = r.fingerprint
	}
	for _, r := range cur {
		if fp, ok := fps[r.workload+" "+r.seed]; ok && fp != r.fingerprint {
			return fmt.Errorf("refused: %s seed %s has input fingerprint %s in the old runs and %s in the new ones", r.workload, r.seed, fp, r.fingerprint)
		}
	}
	group := func(runs []savedRun) map[string]map[string][]float64 {
		g := map[string]map[string][]float64{}
		for _, r := range runs {
			if !r.res.Correct {
				continue
			}
			if g[r.workload] == nil {
				g[r.workload] = map[string][]float64{}
			}
			for n, m := range r.res.Metrics {
				g[r.workload][n] = append(g[r.workload][n], m.Value)
			}
		}
		return g
	}
	og, cg := group(old), group(cur)
	var wls []string
	for w := range og {
		if cg[w] != nil {
			wls = append(wls, w)
		}
	}
	sort.Strings(wls)
	if len(wls) == 0 {
		return fmt.Errorf("no workload has correct runs on both sides")
	}
	for _, w := range wls {
		fmt.Fprintf(out, "%s\n  %-34s %12s %12s %8s %8s %8s\n", w, "metric", "old median", "new median", "change", "old iqr", "new iqr")
		var names []string
		for n := range og[w] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			o, c := og[w][n], cg[w][n]
			if len(c) == 0 {
				continue
			}
			om, cm := median(o), median(c)
			fmt.Fprintf(out, "  %-34s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%%\n", n, om, cm, 100*(cm/om-1), 100*spread(o), 100*spread(c))
		}
	}
	return nil
}

// spread is the distance between the first and third quartiles as a share
// of the median, with the quartiles Python's statistics.quantiles(xs, n=4)
// gives (its default "exclusive" method).
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(xs)
}
