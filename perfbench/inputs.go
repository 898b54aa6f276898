package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"time"

	"etsc/internal/hub"
)

// body is one pre-rendered push: its JSON request body and the points it
// carries.
type body struct {
	json []byte
	pts  []float64
}

// pushRec records one accepted push of a stream: the stream position just
// past its last point, when it was due, and the phase and timed window
// (-1 in warm-up) it belonged to.
type pushRec struct {
	end   int
	due   time.Time
	phase phase
	win   int
}

type phase int8

const (
	phaseWarm phase = iota
	phaseNominal
	phaseSaturate
)

// streamInput is one stream's generated inputs and, once the run starts,
// the record of what was actually pushed. Only one goroutine pushes a
// given stream at a time, and phases run one after another, so the push
// records need no lock.
type streamInput struct {
	id       string
	kind     string
	cfg      hub.StreamConfig
	window   int
	verified bool // the kind re-checks detections against the full window
	probe    bool // watched; see servingShape.probesPerKind

	create []byte // registration body
	warm   []body
	cycle  []body // measured-phase bodies; push k sends cycle[k % len(cycle)]

	next     int       // measured-phase pushes sent so far
	accepted []*body   // every accepted body, in order
	pushes   []pushRec // parallel to accepted
	pos      int       // points accepted so far
}

// series is the concatenation of the stream's accepted pushes: exactly the
// points the server applied.
func (s *streamInput) series() []float64 {
	out := make([]float64, 0, s.pos)
	for _, b := range s.accepted {
		out = append(out, b.pts...)
	}
	return out
}

// record notes an accepted push.
func (s *streamInput) record(b *body, due time.Time, ph phase, win int) {
	s.pos += len(b.pts)
	s.accepted = append(s.accepted, b)
	s.pushes = append(s.pushes, pushRec{end: s.pos, due: due, phase: ph, win: win})
}

// carrier returns the push that carried stream point p.
func (s *streamInput) carrier(p int) (pushRec, bool) {
	lo, hi := 0, len(s.pushes)
	for lo < hi {
		m := (lo + hi) / 2
		if s.pushes[m].end > p {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == len(s.pushes) {
		return pushRec{}, false
	}
	return s.pushes[lo], true
}

// inputs is everything a run pushes, generated from the workload seed.
type inputs struct {
	kinds       []hub.Kind
	streams     []*streamInput
	probes      []*streamInput // the watched streams
	background  []*streamInput // the round-robin: every stream but lane-pushed probes
	warmLen     int
	fingerprint string
}

// makeInputs renders a shape's streams from hub.DemoKinds and
// hub.DemoStreams with the seed, and every request body up front, so no
// rendering happens while a phase is timed.
func makeInputs(w workload, seed int64) (*inputs, error) {
	sh := w.serve
	kinds, err := hub.DemoKinds(seed)
	if err != nil {
		return nil, err
	}
	maxWindow, maxStride := 0, 0
	for _, k := range kinds {
		maxWindow = max(maxWindow, k.Config.Classifier.FullLength())
		maxStride = max(maxStride, k.Config.Stride)
	}
	warmLen := roundUp(maxWindow+maxStride, sh.warmBatch)
	step := max(sh.batch, sh.probeBatch) // both batch sizes divide it
	cycleLen := (sh.streamLen - warmLen) / step * step
	if cycleLen <= 0 {
		return nil, fmt.Errorf("%s: stream length %d leaves no measured points after a %d-point warm-up", w.name, sh.streamLen, warmLen)
	}
	demo, err := hub.DemoStreams(kinds, seed, sh.streams, warmLen+cycleLen)
	if err != nil {
		return nil, err
	}

	fp := sha256.New()
	fmt.Fprintf(fp, "workload=%s seed=%d streams=%d batch=%d warm=%d/%d cycle=%d rate=%g probes=%dx%d@%g\n",
		w.name, seed, sh.streams, sh.batch, warmLen, sh.warmBatch, cycleLen, sh.nominalRate, sh.probesPerKind, sh.probeBatch, sh.probeRate)
	var bits [8]byte
	in := &inputs{kinds: kinds, warmLen: warmLen}
	watched := map[string]int{}
	for _, d := range demo {
		if len(d.Data) < warmLen+cycleLen {
			return nil, fmt.Errorf("demo stream %s has %d points, want %d", d.ID, len(d.Data), warmLen+cycleLen)
		}
		data := d.Data[:warmLen+cycleLen]
		fmt.Fprintf(fp, "%s %s %d\n", d.ID, d.Kind, len(data))
		for _, v := range data {
			binary.LittleEndian.PutUint64(bits[:], math.Float64bits(v))
			fp.Write(bits[:])
		}
		s := &streamInput{
			id:       d.ID,
			kind:     d.Kind,
			cfg:      d.Config,
			window:   d.Config.Classifier.FullLength(),
			verified: d.Config.Verifier != nil,
			probe:    watched[d.Kind] < sh.probesPerKind,
			create:   []byte(fmt.Sprintf(`{"id":%q,"kind":%q}`, d.ID, d.Kind)),
			warm:     render(data[:warmLen], sh.warmBatch),
		}
		batch := sh.batch
		if s.probe && sh.probeBatch > 0 {
			batch = sh.probeBatch
		} else {
			in.background = append(in.background, s)
		}
		s.cycle = render(data[warmLen:], batch)
		in.streams = append(in.streams, s)
		if s.probe {
			in.probes = append(in.probes, s)
			watched[d.Kind]++
		}
	}
	in.fingerprint = hex.EncodeToString(fp.Sum(nil))[:16]
	return in, nil
}

// render cuts pts into batch-sized push bodies.
func render(pts []float64, batch int) []body {
	var out []body
	for i := 0; i < len(pts); i += batch {
		chunk := pts[i:min(i+batch, len(pts))]
		buf := make([]byte, 0, 12+len(chunk)*22)
		buf = append(buf, `{"points":[`...)
		for j, v := range chunk {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, "]}"...)
		out = append(out, body{json: buf, pts: chunk})
	}
	return out
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }
