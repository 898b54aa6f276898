// Remotemonitor is the serving stack end to end from a client's seat: it
// boots an etsc-serve `/v1` API in process (hub + internal/serve on a
// loopback listener), then — exclusively through the typed internal/client
// — registers a chicken-coop telemetry stream plus a second stream whose
// classifier comes from a declarative spec override, pushes batched
// accelerometer telemetry, polls detections incrementally with the
// `since` cursor exactly as a remote dashboard would, and detaches both
// streams for their final reports.
//
//	go run ./examples/remotemonitor [-quick]
//
// Everything after the boot line flows over HTTP: the example never
// touches the hub directly, so what it prints is exactly what any remote
// client of the wire protocol can see.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/serve"
)

func main() {
	quick := flag.Bool("quick", false, "shorter telemetry, faster run")
	flag.Parse()
	if err := run(os.Stdout, *quick); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, quick bool) error {
	minLen := 12_000
	if quick {
		minLen = 3_000
	}

	// Boot the server side: demo kinds, hub, /v1 API on a loopback port.
	kinds, err := hub.DemoKinds(7)
	if err != nil {
		return err
	}
	h, err := hub.New(hub.Config{Workers: 2})
	if err != nil {
		return err
	}
	srv, err := serve.New(h, kinds)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(w, "etsc-serve up at %s (kinds: chicken, gunpoint, words)\n\n", base)

	// Everything below is the remote side: typed client only. WithRetry
	// rides out transient transport faults on the idempotent calls (list,
	// poll, detach) the way a real dashboard client should.
	c, err := client.New(base, client.WithRetry(3, 100*time.Millisecond))
	if err != nil {
		return err
	}
	ctx := context.Background()

	// One stream on the kind's stock pipeline, one with a declarative
	// spec override trained server-side on the kind's dataset.
	const stock, custom = "coop-stock", "coop-custom"
	info, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: stock, Kind: "chicken"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "registered %-12s kind=%s spec=%s engine=%s\n", info.ID, info.Kind, info.Spec, info.Engine)
	info, err = c.CreateStream(ctx, client.CreateStreamRequest{
		ID: custom, Kind: "chicken", Spec: "probthreshold:threshold=0.95,minprefix=12",
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "registered %-12s kind=%s spec=%s engine=%s\n\n", info.ID, info.Kind, info.Spec, info.Engine)

	// Render telemetry for each stream (distinct seeded generators — two
	// different coops) and push it in sensor-gateway-sized batches,
	// polling the detections cursor after every few batches.
	var chicken hub.Kind
	for _, k := range kinds {
		if k.Name == "chicken" {
			chicken = k
		}
	}
	data := map[string][]float64{}
	for i, id := range []string{stock, custom} {
		data[id], err = chicken.Gen(rand.New(rand.NewSource(int64(40+i))), minLen)
		if err != nil {
			return err
		}
	}

	const batch = 256
	cursors := map[string]int{}
	pushed := map[string]int{}
	// poll prints the detections settled past each stream's cursor. It
	// first waits until the server has applied every point pushed so far:
	// chicken streams have no verifier, so the settled prefix then depends
	// on the position alone and every run prints the same lines.
	poll := func() error {
		for _, id := range []string{stock, custom} {
			for {
				info, err := c.Stream(ctx, id)
				if err != nil {
					return err
				}
				if info.Stats.Position == pushed[id] {
					break
				}
				time.Sleep(time.Millisecond)
			}
			page, err := c.Detections(ctx, id, cursors[id])
			if err != nil {
				return err
			}
			for _, det := range page.Detections {
				fmt.Fprintf(w, "%-12s alarm: dustbathing onset near t=%d (decided at t=%d, %.0f%% of window seen)\n",
					id, det.Start, det.DecisionAt, det.Earliness*100)
			}
			cursors[id] = page.Next
		}
		return nil
	}
	for off := 0; off < minLen; off += batch {
		for _, id := range []string{stock, custom} {
			d := data[id]
			end := off + batch
			if end > len(d) {
				end = len(d)
			}
			if off >= end {
				continue
			}
			// Backpressure means the batch was not applied: retry the
			// same batch whole after backing off.
			for {
				_, err := c.Push(ctx, id, d[off:end])
				if err == nil {
					break
				}
				if !client.IsBackpressure(err) {
					return err
				}
				time.Sleep(50 * time.Millisecond)
			}
			pushed[id] = end
		}
		// Poll incrementally: only detections past the cursor arrive.
		if off/batch%4 == 3 {
			if err := poll(); err != nil {
				return err
			}
		}
	}
	if err := poll(); err != nil {
		return err
	}

	// Detach for the final reports — the drain guarantees every queued
	// batch is applied before the report is cut. The hub totals sum the
	// reports: a detached stream no longer counts in GET /v1/stats.
	fmt.Fprintln(w)
	var points, batches int64
	for _, id := range []string{stock, custom} {
		rep, err := c.DeleteStream(ctx, id)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "final %-12s %d points, %d detections (%d recanted)\n",
			id, rep.Stats.Position, len(rep.Detections), rep.Stats.Recanted)
		points += rep.Stats.Points
		batches += rep.Stats.Batches
	}
	fmt.Fprintf(w, "hub totals: %d points over the session, %d batches\n", points, batches)
	return nil
}
