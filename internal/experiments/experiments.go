// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner builds its workload from the seeded
// generators in internal/synth, executes the experiment, checks the
// paper's qualitative claim (the "shape" of the result — who wins, what
// plunges, what is indistinguishable), and renders a text table.
//
// Absolute numbers are not expected to match the paper (the substrate is
// synthetic; see DESIGN.md), but every runner returns an error if the
// claim it reproduces does not hold, so the test suite enforces the
// reproduction.
package experiments

import (
	"fmt"
	"strings"
)

// Config controls experiment sizes and reproducibility.
type Config struct {
	// Seed drives every generator; two runs with the same seed are
	// identical.
	Seed int64
	// Quick shrinks stream lengths and sweep resolutions to test/bench
	// scale (seconds instead of minutes). The shape claims still hold.
	Quick bool
	// Parallelism bounds every worker pool the runners use — stream
	// monitor candidate fan-out, LOOCV, prefix sweeps, test-set
	// evaluation, and the shared etsc.TrainContext each algorithm suite
	// trains through. 0 means one worker per CPU; 1 runs everything
	// serially. Results are identical for every value (see DESIGN.md): the
	// knob trades wall-clock time only, so reproducibility is unaffected.
	Parallelism int
}

// QuickConfig returns the reduced configuration used by tests and benches.
func QuickConfig() Config { return Config{Seed: 42, Quick: true} }

// table renders rows as an aligned text table with a header.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
