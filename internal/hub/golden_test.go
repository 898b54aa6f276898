package hub

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// The golden scenario: 3 stream kinds × 8 streams each, fixed seeds, fixed
// batch split. The full detection transcript — every stream's detections
// with start, decision point, label, earliness, and recant flag — is
// pinned by hash and asserted byte-identical for every tested worker
// count. A hash change means the hub's output changed: either a pipeline
// changed deliberately (re-pin after review) or determinism broke (fix the
// hub).
const (
	goldenSeed        = 20260729
	goldenStreamsKind = 8
	goldenMinLen      = 2600
	goldenHash        = "b926820717f3ffad"
)

// goldenBatches renders the scenario's streams and their fixed batch
// split. Batch boundaries come from the same seeded rng for every run, so
// worker count is the only variable under test.
func goldenBatches(t testing.TB, kinds []Kind) (series map[string][]float64, batches map[string][][]float64, ids []string) {
	t.Helper()
	series = map[string][]float64{}
	batches = map[string][][]float64{}
	for ki, k := range kinds {
		for si := 0; si < goldenStreamsKind; si++ {
			id := DemoStreamID(k.Name, si)
			rng := rand.New(rand.NewSource(DemoStreamSeed(goldenSeed, ki, si)))
			data, err := k.Gen(rng, goldenMinLen)
			if err != nil {
				t.Fatal(err)
			}
			series[id] = data
			split := rand.New(rand.NewSource(DemoStreamSeed(goldenSeed, ki, si) + 1))
			for off := 0; off < len(data); {
				n := 1 + split.Intn(127)
				if off+n > len(data) {
					n = len(data) - off
				}
				batches[id] = append(batches[id], data[off:off+n])
				off += n
			}
			ids = append(ids, id)
		}
	}
	return series, batches, ids
}

// runGolden pushes the scenario through a hub with the given worker count,
// interleaving batches round-robin across all 24 streams so distinct
// streams genuinely overlap in the pool, and returns the final reports.
func runGolden(t testing.TB, kinds []Kind, batches map[string][][]float64, ids []string, workers int) []StreamReport {
	t.Helper()
	h, err := New(Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string]Kind{}
	for _, k := range kinds {
		byKind[k.Name] = k
	}
	for _, id := range ids {
		kind := byKind[strings.SplitN(id, "-", 2)[0]]
		if err := h.Attach(id, kind.Config); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; ; round++ {
		any := false
		for _, id := range ids {
			if round < len(batches[id]) {
				any = true
				if err := h.Push(id, batches[id][round]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !any {
			break
		}
	}
	reports, err := h.Close()
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// transcript renders reports to the canonical text form the golden hash
// covers.
func transcript(reports []StreamReport) string {
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&b, "%s pos=%d dets=%d recanted=%d\n", r.ID, r.Stats.Position, len(r.Detections), r.Stats.Recanted)
		for _, d := range r.Detections {
			fmt.Fprintf(&b, "  start=%d at=%d label=%d earliness=%.6f recanted=%v\n",
				d.Start, d.DecisionAt, d.Label, d.Earliness, d.Recanted)
		}
	}
	return b.String()
}

func hashTranscript(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenDeterminism runs the pinned scenario at workers ∈ {1, 4,
// GOMAXPROCS}, asserts all transcripts are byte-identical, equal to the
// per-stream serial Reference oracle, and equal to the pinned golden hash.
func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden scenario runs 24 streams × 3 worker counts")
	}
	kinds, err := DemoKinds(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	series, batches, ids := goldenBatches(t, kinds)

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	transcripts := make([]string, len(workerCounts))
	var reports []StreamReport
	for i, w := range workerCounts {
		reports = runGolden(t, kinds, batches, ids, w)
		transcripts[i] = transcript(reports)
	}
	for i := 1; i < len(transcripts); i++ {
		if transcripts[i] != transcripts[0] {
			t.Fatalf("transcript differs between workers=%d and workers=%d",
				workerCounts[0], workerCounts[i])
		}
	}

	// Per-stream equivalence against the serial oracle (uses the last
	// run's reports — all runs are identical by the assertion above).
	byKind := map[string]Kind{}
	for _, k := range kinds {
		byKind[k.Name] = k
	}
	total := 0
	for _, r := range reports {
		kind := byKind[strings.SplitN(r.ID, "-", 2)[0]]
		want, err := Reference(kind.Config, series[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if got, wantS := fmt.Sprintf("%+v", r.Detections), fmt.Sprintf("%+v", want); got != wantS {
			t.Errorf("%s: hub transcript != standalone stream.Online transcript\n got %s\nwant %s", r.ID, got, wantS)
		}
		total += len(r.Detections)
	}
	if total == 0 {
		t.Fatal("golden scenario produced no detections at all — the pin is vacuous")
	}

	got := hashTranscript(transcripts[0])
	if got != goldenHash {
		t.Errorf("golden transcript hash = %s, want %s\n(first lines)\n%s",
			got, goldenHash, firstLines(transcripts[0], 12))
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
