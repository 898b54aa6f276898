package hub

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"etsc/internal/dataset"
	"etsc/internal/etsc"
	"etsc/internal/synth"
)

// gateClassifier is a controllable EarlyClassifier: when gate is non-nil,
// every ClassifyPrefix call blocks until the gate is closed, which lets
// backpressure tests pin the drain worker deterministically.
type gateClassifier struct {
	full int
	gate chan struct{}
}

func (g *gateClassifier) Name() string    { return "gate" }
func (g *gateClassifier) FullLength() int { return g.full }
func (g *gateClassifier) ClassifyPrefix(prefix []float64) etsc.Decision {
	if g.gate != nil {
		<-g.gate
	}
	return etsc.Decision{Label: 1, Ready: len(prefix) >= g.full/2}
}
func (g *gateClassifier) ForcedLabel(series []float64) int { return 1 }

// panicClassifier blows up on its first consultation, standing in for a
// buggy user-supplied pipeline.
type panicClassifier struct{ full int }

func (p *panicClassifier) Name() string    { return "panic" }
func (p *panicClassifier) FullLength() int { return p.full }
func (p *panicClassifier) ClassifyPrefix(prefix []float64) etsc.Decision {
	panic("classifier boom")
}
func (p *panicClassifier) ForcedLabel(series []float64) int { return 1 }

func tinyTrainSet(t testing.TB) *dataset.Dataset {
	t.Helper()
	rng := synth.NewRand(1)
	var ins []dataset.Instance
	for i := 0; i < 4; i++ {
		s := make([]float64, 16)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		ins = append(ins, dataset.Instance{Label: i%2 + 1, Series: s})
	}
	d, err := dataset.New("tiny", ins)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: -1},
		{QueueDepth: -1},
		{Policy: Policy(7)},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an invalid config", cfg)
		}
	}
}

func TestAttachValidation(t *testing.T) {
	h, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Attach("a", StreamConfig{}); err == nil {
		t.Error("Attach accepted a nil classifier")
	}
	c := &gateClassifier{full: 16}
	if err := h.Attach("a", StreamConfig{Classifier: c, Suppress: -1}); err == nil {
		t.Error("Attach accepted negative Suppress")
	}
	if err := h.Attach("a", StreamConfig{Classifier: c, Stride: -1}); err == nil {
		t.Error("Attach accepted negative Stride")
	}
	if err := h.Attach("a", StreamConfig{Classifier: c}); err != nil {
		t.Fatal(err)
	}
	if err := h.Attach("a", StreamConfig{Classifier: c}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate Attach: got %v, want ErrDuplicate", err)
	}
}

func TestPushUnknownAndDetach(t *testing.T) {
	h, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Push("ghost", []float64{1}); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("Push to unknown stream: got %v", err)
	}
	if err := h.Push("ghost", nil); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("empty Push to unknown stream must still error, got %v", err)
	}
	c := &gateClassifier{full: 16}
	if err := h.Attach("a", StreamConfig{Classifier: c, Stride: 4, Step: 4}); err != nil {
		t.Fatal(err)
	}
	if err := h.Push("a", []float64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Detach("a")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Position != 8 {
		t.Errorf("detach report position = %d, want 8", rep.Stats.Position)
	}
	if len(rep.Detections) == 0 {
		t.Error("gate classifier commits at half window; expected detections")
	}
	if err := h.Push("a", []float64{1}); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("Push after Detach: got %v", err)
	}
	if _, err := h.Detach("a"); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("second Detach: got %v", err)
	}
	reps, err := h.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Close is idempotent: a second call returns the same reports, nil
	// error (the full race is exercised by TestCloseIdempotentUnderPush).
	again, err := h.Close()
	if err != nil {
		t.Errorf("second Close: got %v, want idempotent nil", err)
	}
	if !reflect.DeepEqual(again, reps) {
		t.Errorf("second Close reports %+v != first %+v", again, reps)
	}
	if err := h.Push("a", []float64{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Push after Close: got %v", err)
	}
	if err := h.Attach("b", StreamConfig{Classifier: c}); !errors.Is(err, ErrClosed) {
		t.Errorf("Attach after Close: got %v", err)
	}
}

// TestDropPolicy pins the single worker inside stream a's classifier, fills
// stream b's queue, and checks the overflow batch is rejected loudly and
// counted — never silently discarded.
func TestDropPolicy(t *testing.T) {
	gate := make(chan struct{})
	slow := &gateClassifier{full: 16, gate: gate}
	fast := &gateClassifier{full: 16}
	h, err := New(Config{Workers: 1, QueueDepth: 2, Policy: Drop})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach("slow", StreamConfig{Classifier: slow, Stride: 4, Step: 4}); err != nil {
		t.Fatal(err)
	}
	if err := h.Attach("b", StreamConfig{Classifier: fast, Stride: 4, Step: 4}); err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker: the drain blocks inside ClassifyPrefix.
	if err := h.Push("slow", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// Fill b's queue (depth 2) and overflow it.
	batch := []float64{1, 2, 3, 4}
	if err := h.Push("b", batch); err != nil {
		t.Fatal(err)
	}
	if err := h.Push("b", batch); err != nil {
		t.Fatal(err)
	}
	if err := h.Push("b", batch); !errors.Is(err, ErrDropped) {
		t.Fatalf("overflow Push: got %v, want ErrDropped", err)
	}
	close(gate)
	h.Flush()
	st := h.Snapshot()["b"]
	if st.DroppedBatches != 1 || st.DroppedPoints != 4 {
		t.Errorf("drop stats = %+v, want 1 batch / 4 points", st)
	}
	if st.Position != 8 {
		t.Errorf("b position = %d, want 8 (two accepted batches)", st.Position)
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockPolicy checks a pusher over a full queue parks until the drain
// frees space, instead of dropping.
func TestBlockPolicy(t *testing.T) {
	gate := make(chan struct{})
	slow := &gateClassifier{full: 16, gate: gate}
	h, err := New(Config{Workers: 1, QueueDepth: 1, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach("a", StreamConfig{Classifier: slow, Stride: 4, Step: 4}); err != nil {
		t.Fatal(err)
	}
	// First batch occupies the worker (blocked in the classifier), second
	// fills the queue, third must block.
	if err := h.Push("a", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := h.Push("a", []float64{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- h.Push("a", []float64{9, 10, 11, 12}) }()
	select {
	case err := <-done:
		t.Fatalf("Push returned %v before queue space freed", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("blocked Push failed after space freed: %v", err)
	}
	h.Flush()
	if pos := h.Snapshot()["a"].Position; pos != 12 {
		t.Errorf("position = %d, want 12", pos)
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainPanicFailStop: a panicking pipeline must not strand its stream
// — Flush/Detach/Close still terminate, the stream rejects further pushes,
// and the panic resurfaces at Close instead of vanishing.
func TestDrainPanicFailStop(t *testing.T) {
	h, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach("bad", StreamConfig{Classifier: &panicClassifier{full: 16}, Stride: 4, Step: 4}); err != nil {
		t.Fatal(err)
	}
	if err := h.Push("bad", make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	h.Flush() // must not hang on the dead stream
	if err := h.Push("bad", []float64{1}); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("Push to failed stream: got %v, want ErrUnknownStream", err)
	}
	defer func() {
		if r := recover(); r != "classifier boom" {
			t.Errorf("Close recovered %v, want the classifier panic", r)
		}
	}()
	_, _ = h.Close()
	t.Error("Close returned without rethrowing the classifier panic")
}

// TestHubMatchesOnline is the equivalence contract: for each demo kind,
// pushing a stream through the hub in arbitrary batch sizes produces the
// exact transcript of the serial Reference oracle.
func TestHubMatchesOnline(t *testing.T) {
	kinds, err := DemoKinds(11)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	series := map[string][]float64{}
	for _, k := range kinds {
		data, err := k.Gen(rand.New(rand.NewSource(7)), 2600)
		if err != nil {
			t.Fatal(err)
		}
		series[k.Name] = data
		if err := h.Attach(k.Name, k.Config); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			n := 1 + rng.Intn(97)
			if off+n > len(data) {
				n = len(data) - off
			}
			if err := h.Push(k.Name, data[off:off+n]); err != nil {
				t.Fatal(err)
			}
			off += n
		}
	}
	reports, err := h.Close()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]StreamReport{}
	for _, r := range reports {
		byID[r.ID] = r
	}
	for _, k := range kinds {
		want, err := Reference(k.Config, series[k.Name])
		if err != nil {
			t.Fatal(err)
		}
		got := byID[k.Name].Detections
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: hub transcript diverges from Reference:\n got %v\nwant %v", k.Name, got, want)
		}
		if len(want) == 0 {
			t.Errorf("%s: scenario produced no detections — equivalence test is vacuous", k.Name)
		}
		if byID[k.Name].Stats.PendingVerify != 0 {
			t.Errorf("%s: %d detections left pending after Close", k.Name, byID[k.Name].Stats.PendingVerify)
		}
	}
}

// TestStatsTotals sanity-checks the aggregate view.
func TestStatsTotals(t *testing.T) {
	h, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := &gateClassifier{full: 16}
	for i := 0; i < 3; i++ {
		if err := h.Attach(fmt.Sprintf("s%d", i), StreamConfig{Classifier: c, Stride: 4, Step: 4}); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]float64, 32)
	for i := 0; i < 3; i++ {
		if err := h.Push(fmt.Sprintf("s%d", i), batch); err != nil {
			t.Fatal(err)
		}
	}
	h.Flush()
	tot := h.Stats()
	if tot.Streams != 3 || tot.Points != 96 || tot.Batches != 3 {
		t.Errorf("totals = %+v, want 3 streams / 96 points / 3 batches", tot)
	}
	if tot.Detections == 0 {
		t.Error("gate classifier always commits; expected detections")
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseIdempotentUnderPush is the regression test for the Close
// contract: Close racing with in-flight Pushes and with other Close calls
// must neither panic nor hang, every Close call must return the same
// drained reports, and no accepted batch may be lost. The one subtest keeps
// the name it had when a sharded hub ran the same case beside it, so its
// history in test reports stays continuous.
func TestCloseIdempotentUnderPush(t *testing.T) {
	t.Run("hub", closeIdempotentUnderPush)
}

func closeIdempotentUnderPush(t *testing.T) {
	h, err := New(Config{Workers: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := &gateClassifier{full: 16}
	const nStreams = 8
	for i := 0; i < nStreams; i++ {
		if err := h.Attach(fmt.Sprintf("s%d", i), StreamConfig{Classifier: c, Stride: 4, Step: 4}); err != nil {
			t.Fatal(err)
		}
	}
	// Pushers hammer until the hub closes under them; every push must
	// either succeed or fail with ErrClosed/ErrUnknownStream.
	stop := make(chan struct{})
	var pushers sync.WaitGroup
	for i := 0; i < nStreams; i++ {
		pushers.Add(1)
		go func(id string) {
			defer pushers.Done()
			batch := make([]float64, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := h.Push(id, batch)
				if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrUnknownStream) {
					t.Errorf("%s: push during close: %v", id, err)
					return
				}
				if err != nil {
					return
				}
			}
		}(fmt.Sprintf("s%d", i))
	}

	const nClosers = 4
	results := make([][]StreamReport, nClosers)
	errs := make([]error, nClosers)
	var closers sync.WaitGroup
	for i := 0; i < nClosers; i++ {
		closers.Add(1)
		go func(i int) {
			defer closers.Done()
			results[i], errs[i] = h.Close()
		}(i)
	}
	closers.Wait()
	close(stop)
	pushers.Wait()

	for i := 0; i < nClosers; i++ {
		if errs[i] != nil {
			t.Fatalf("closer %d: %v", i, errs[i])
		}
		if len(results[i]) != nStreams {
			t.Fatalf("closer %d got %d reports, want %d", i, len(results[i]), nStreams)
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("closer %d reports differ from closer 0", i)
		}
	}
	// Every accepted batch was applied: position == accepted points.
	for _, r := range results[0] {
		if int64(r.Stats.Position) != r.Stats.Points {
			t.Errorf("%s: position %d != accepted points %d", r.ID, r.Stats.Position, r.Stats.Points)
		}
	}
	// A straggler Close after the fact returns the same thing again.
	again, err := h.Close()
	if err != nil {
		t.Fatalf("post-hoc Close: %v", err)
	}
	if !reflect.DeepEqual(again, results[0]) {
		t.Error("post-hoc Close reports differ")
	}
}

// TestEmptyPushIsNoop documents that a zero-length batch is accepted and
// changes nothing.
func TestEmptyPushIsNoop(t *testing.T) {
	h, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := &gateClassifier{full: 16}
	if err := h.Attach("a", StreamConfig{Classifier: c}); err != nil {
		t.Fatal(err)
	}
	if err := h.Push("a", nil); err != nil {
		t.Fatal(err)
	}
	h.Flush()
	if st := h.Snapshot()["a"]; st.Batches != 0 || st.Position != 0 {
		t.Errorf("empty push changed stats: %+v", st)
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}
