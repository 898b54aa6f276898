package main

import "fmt"

// Every workload runs the same two parts at its own sizes, so every
// end-to-end metric means the same thing on each of them:
//
//   - a serving part: setup, untimed warm-up, a timed span of one-second
//     windows alternating an open-loop "nominal" phase at a fixed rate and
//     a closed-loop "saturate" phase, and a final DELETE of every stream;
//   - a reproduction part: etsc-repro at quick or full size.
//
// The sizes decide which layers do most of the work:
//
//   - fleet: 24 streams in 64-point batches straight to one server, so the
//     classifier layers (ts, etsc, stream) do a large share of the work
//     and the request path a small one;
//   - sensors: ~1k streams in 8-point batches through the router to two
//     backends, so the per-request layers (router, serve, hub admission)
//     dominate and the ~1k-stream working set spills the caches;
//   - repro: the full-size reproduction, the only place training, the
//     offline evaluation engine and the classifiers no demo kind serves
//     run; its serving part repeats fleet's.
//
// The backends run without -checkpoint. Checkpoint generations fsync one
// file per stream, and on a virtual disk their cost swings from run to
// run and lingers into the runs after: with a generation every 2.5s,
// sensors' saturated throughput fell from 39k to 8k points/s over five
// consecutive runs; every 5s, its spread over five runs was 0.39 against
// 0.085 without. Snapshot export and checkpoint syncs are measured in the
// traced run's replays instead, beside ingest.

// servingShape sizes a workload's serving part.
type servingShape struct {
	streams int // demo streams, kinds round-robin
	batch   int // points per push in the measured phases
	// warmBatch is the push size during warm-up, which only has to carry
	// every stream past its first full pattern window.
	warmBatch int
	// router puts etsc-router in front of two backends; otherwise the load
	// goes straight to one etsc-serve.
	router  bool
	workers int // -workers of each backend
	// nominalRate is the open-loop rate, points/s. It is fixed here, never
	// re-derived per run, so runs of different commits are comparable. It
	// keeps the one pushing connection under half busy on a 2-core
	// machine, so a slow spell does not turn into a queue inside the
	// generator.
	nominalRate float64
	// The watched probe streams, the first probesPerKind streams of each
	// kind, carry the alarm-delay measurement. With probeBatch 0 they are
	// ordinary streams. Otherwise they leave the round-robin and get their
	// own open-loop lane of probeBatch-point pushes at probeRate points/s
	// in total: where ~1k streams share the rate, an ordinary stream sees
	// too few points for its detections to arrive at a measurable rate.
	probesPerKind int
	probeBatch    int
	probeRate     float64
	setups        int // setups per run; setup_s is their median
	streamLen     int // rendered points per stream; the measured phases cycle over them
}

// workload is one named traffic mix.
type workload struct {
	name  string
	serve servingShape
	// reproQuick runs etsc-repro -quick quickReps times instead of
	// fullReps full-size reproductions.
	reproQuick bool
}

var workloads = []workload{
	{
		name: "fleet",
		serve: servingShape{
			streams: 24, batch: 64, warmBatch: 64, workers: 2,
			nominalRate: 50_000, probesPerKind: 8, setups: 9, streamLen: 16_384,
		},
		reproQuick: true,
	},
	{
		name: "sensors",
		serve: servingShape{
			streams: 999, batch: 8, warmBatch: 160, router: true, workers: 1,
			nominalRate: 3_000, probesPerKind: 1, probeBatch: 64, probeRate: 4_800,
			setups: 5, streamLen: 2_400,
		},
		reproQuick: true,
	},
	{
		name: "repro",
		serve: servingShape{
			streams: 24, batch: 64, warmBatch: 64, workers: 2,
			nominalRate: 50_000, probesPerKind: 8, setups: 9, streamLen: 16_384,
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want fleet, sensors or repro)", name)
}
