package hub

import (
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/etsc"
	"etsc/internal/ts"
)

// quietStreamConfig builds a pipeline that ingests indefinitely without
// detecting: a FixedPrefix model over a very long exemplar, with the
// monitor's stride pushed past the horizon so exactly one quiet candidate
// exists. It isolates the hub's enqueue/drain bookkeeping from classifier
// work in the allocation tests.
func quietStreamConfig(t testing.TB, seriesLen int) StreamConfig {
	t.Helper()
	mk := func(level float64) dataset.Instance {
		s := make(ts.Series, seriesLen)
		for i := range s {
			s[i] = level
		}
		return dataset.Instance{Label: int(level) + 2, Series: s}
	}
	d, err := dataset.New("quiet", []dataset.Instance{mk(-1), mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := etsc.Train(etsc.Spec{Algo: etsc.AlgoFixedPrefix, Params: map[string]any{
		"at": seriesLen, "znorm": false}}, d)
	if err != nil {
		t.Fatal(err)
	}
	return StreamConfig{Classifier: clf, Stride: seriesLen, Step: 8}
}

// TestHubPushAllocFree is the steady-state zero-allocation regression test
// for the Push path. It measures the enqueue path in isolation: the
// stream's drain is parked (running pinned true) with the freelist and
// queue prewarmed to the measured population, exactly the state of a
// saturated stream whose drain lags its pusher, so every Push must pop a
// recycled buffer, copy, and enqueue without touching the heap.
func TestHubPushAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const runs = 200
	const batchLen = 64
	h, err := New(Config{Workers: 1, QueueDepth: runs + 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach("s", quietStreamConfig(t, 100_000)); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	s := h.streams["s"]
	h.mu.Unlock()

	// Park the drain and prewarm: with the queue preallocated to depth and
	// one recycled buffer per measured Push in the freelist, the enqueue
	// path has everything it will ever need.
	s.mu.Lock()
	s.running = true
	for i := 0; i < runs+2; i++ {
		s.free = append(s.free, make([]float64, 0, batchLen))
	}
	s.mu.Unlock()

	batch := make([]float64, batchLen)
	allocs := testing.AllocsPerRun(runs, func() {
		if err := h.Push("s", batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hub.Push allocated %v per call, want 0", allocs)
	}

	// Unpark: hand the queue to a real drain, then shut down cleanly.
	s.mu.Lock()
	s.running = false
	s.mu.Unlock()
	if err := h.Push("s", batch); err != nil {
		t.Fatal(err)
	}
	h.Flush()
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHubPushRecyclesBuffers pins the freelist round trip end to end: after
// pushes drain, their buffers are back on the stream's freelist (bounded by
// the batch population), and a subsequent Push reuses one instead of
// allocating.
func TestHubPushRecyclesBuffers(t *testing.T) {
	h, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach("s", quietStreamConfig(t, 100_000)); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	s := h.streams["s"]
	h.mu.Unlock()

	batch := make([]float64, 48)
	for i := 0; i < 12; i++ {
		if err := h.Push("s", batch); err != nil {
			t.Fatal(err)
		}
	}
	h.Flush()
	s.mu.Lock()
	nfree := len(s.free)
	var caps []int
	for _, b := range s.free {
		caps = append(caps, cap(b))
	}
	s.mu.Unlock()
	if nfree < 1 {
		t.Fatal("no drained buffers returned to the freelist")
	}
	if nfree > 5 { // depth + 1 draining
		t.Fatalf("freelist grew to %d buffers, want <= depth+1 = 5", nfree)
	}
	for i, c := range caps {
		if c < len(batch) {
			t.Fatalf("recycled buffer %d has cap %d < batch size %d", i, c, len(batch))
		}
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}
