package router

import (
	"context"
	"time"
)

// Start launches the health prober. Call Stop to shut it down; Start may
// be called at most once.
func (rt *Router) Start() {
	go rt.probeLoop()
}

// Stop halts the prober and waits for it to exit. Safe to call once.
func (rt *Router) Stop() {
	close(rt.probeStop)
	<-rt.probeDone
}

// probeLoop GETs every backend's /v1/healthz each ProbeInterval. One
// success resets a backend's failure count and marks it alive; on the
// FailThreshold'th consecutive failure the backend is marked dead and its
// streams are re-registered on the survivors (recoverBackend). A probe
// that succeeds against a previously-dead backend flips it back alive
// immediately — it rejoins the table for hash-home traffic, while its
// recovered streams keep their overrides until the next rebalance.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.probeStop:
			return
		case <-tick.C:
		}
		rt.probeOnce()
	}
}

// probeOnce runs one probe round over the current table. Probes are
// sequential — the table is small and each probe's context carries the
// ProbeTimeout deadline, so a round takes at most N×ProbeTimeout. A probe
// goes through the backend's one client: Health is single-shot even under
// WithRetry. fails is only touched here (the prober goroutine), so no
// lock is needed.
func (rt *Router) probeOnce() {
	table := *rt.table.Load()
	for _, b := range table {
		ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
		_, err := b.c.Health(ctx)
		cancel()
		if err == nil {
			if !b.alive.Load() {
				rt.logf("router: backend %q back alive", b.name)
				b.alive.Store(true)
			}
			b.fails = 0
			continue
		}
		b.fails++
		if b.fails == rt.cfg.FailThreshold && b.alive.Load() {
			rt.logf("router: backend %q dead after %d failed probes: %v", b.name, b.fails, err)
			b.alive.Store(false)
			rt.mDeaths.Inc()
			rt.recoverBackend(b)
		}
	}
}
