package hub

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"etsc/internal/etsc"
	"etsc/internal/stream"
)

// decodeBatches turns fuzz bytes into float batches, deliberately keeping
// whatever Float64frombits yields — NaN, ±Inf, subnormals — since sensor
// streams in the wild contain garbage and the hub must not panic on it.
func decodeBatches(data []byte) [][]float64 {
	var batches [][]float64
	for len(data) > 0 {
		n := int(data[0])%32 + 1
		data = data[1:]
		batch := make([]float64, 0, n)
		for i := 0; i < n && len(data) >= 8; i++ {
			batch = append(batch, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
			data = data[8:]
		}
		if len(batch) == 0 {
			break
		}
		batches = append(batches, batch)
	}
	return batches
}

// FuzzHubPush feeds arbitrary float batches (NaN/Inf included) through a
// two-stream hub under the Drop policy and asserts the hub never panics
// and every stream's position equals exactly the points it accepted.
func FuzzHubPush(f *testing.F) {
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3), uint8(2))
	f.Add(append([]byte{16}, make([]byte, 64)...), uint8(1), uint8(1))
	inf := make([]byte, 17)
	binary.LittleEndian.PutUint64(inf[1:], math.Float64bits(math.Inf(1)))
	binary.LittleEndian.PutUint64(inf[9:], math.Float64bits(math.NaN()))
	f.Add(inf, uint8(4), uint8(4))

	train := tinyTrainSet(f)
	clf, err := etsc.TrainSpecString("fixedprefix:at=8,znorm=false", train)
	if err != nil {
		f.Fatal(err)
	}
	verifier, err := stream.NewNNVerifier(train, 0.95, 1.0)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte, strideB, stepB uint8) {
		h, err := New(Config{Workers: 2, QueueDepth: 4, Policy: Drop})
		if err != nil {
			t.Fatal(err)
		}
		stride := int(strideB)%6 + 1
		step := int(stepB)%6 + 1
		if err := h.Attach("plain", StreamConfig{Classifier: clf, Stride: stride, Step: step}); err != nil {
			t.Fatal(err)
		}
		if err := h.Attach("verified", StreamConfig{Classifier: clf, Stride: stride, Step: step, Suppress: 8, Verifier: verifier}); err != nil {
			t.Fatal(err)
		}
		accepted := map[string]int{}
		for i, batch := range decodeBatches(data) {
			id := "plain"
			if i%2 == 1 {
				id = "verified"
			}
			err := h.Push(id, batch)
			switch {
			case err == nil:
				accepted[id] += len(batch)
			case errors.Is(err, ErrDropped):
				// surfaced, counted — fine
			default:
				t.Fatalf("Push: %v", err)
			}
		}
		h.Flush()
		for id, want := range accepted {
			if pos := h.Snapshot()[id].Position; pos != want {
				t.Fatalf("%s: position %d after accepting %d points", id, pos, want)
			}
		}
		reports, err := h.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			if int64(r.Stats.Position) != r.Stats.Points {
				t.Fatalf("%s: position %d != accepted points %d", r.ID, r.Stats.Position, r.Stats.Points)
			}
			if r.Stats.PendingVerify != 0 {
				t.Fatalf("%s: %d pending verifications after Close", r.ID, r.Stats.PendingVerify)
			}
			for _, d := range r.Detections {
				if d.Start < 0 || d.DecisionAt < d.Start || d.DecisionAt >= r.Stats.Position {
					t.Fatalf("%s: malformed detection %+v at position %d", r.ID, d, r.Stats.Position)
				}
				if !(d.Earliness > 0 && d.Earliness <= 1) {
					t.Fatalf("%s: earliness %v out of (0,1]", r.ID, d.Earliness)
				}
			}
		}
	})
}
