// GET /metrics — Prometheus text exposition for the serving layer.
//
// Two feeding styles, matching internal/metrics' split:
//
//   - Hot-path instruments (push latency, batch/drop/shed counters) live in
//     the hub and are registered by hub.(*Hub).SetMetrics — atomic updates
//     on the ingest path.
//   - Everything derived from state — per-stream queue depth and watcher
//     counts, per-kind detection totals — is registered here as
//     scrape-time Collect families over hub.Snapshot joined with the
//     server's registration metadata: zero cost between scrapes, always
//     consistent with what /v1/streams reports.
//
// Naming scheme (DESIGN.md §Layer 10): etsc_hub_* = hub hot path,
// etsc_stream_* = per-stream (stream label), etsc_kind_* = per-kind (kind
// label), bare etsc_* = hub-wide.
// Per-stream families are capped at maxStreamSeries series (lowest stream
// IDs win, deterministically) so a 100k-stream fleet cannot turn one scrape
// into a cardinality explosion; etsc_stream_series_omitted counts what the
// cap hid, so dashboards know when to switch to the aggregate families.
package serve

import (
	"net/http"
	"sort"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/metrics"
)

// maxStreamSeries bounds the per-stream families' cardinality per scrape.
const maxStreamSeries = 64

// EnableMetrics installs reg (a fresh registry when nil) behind GET
// /metrics and registers the serving layer's scrape-time families. It
// returns the registry so the caller can thread the same one through
// hub.SetMetrics and its own instruments. Calling it again is a no-op
// returning the installed registry.
func (s *Server) EnableMetrics(reg *metrics.Registry) *metrics.Registry {
	s.mu.Lock()
	if s.reg != nil {
		reg = s.reg
		s.mu.Unlock()
		return reg
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s.reg = reg
	s.mu.Unlock()

	reg.Collect("etsc_streams", "Attached streams.", metrics.TypeGauge,
		func(emit func(float64, ...metrics.Label)) {
			emit(float64(s.hub.Stats().Streams))
		})
	reg.Collect("etsc_watchers", "Live watch subscriptions across all streams.", metrics.TypeGauge,
		func(emit func(float64, ...metrics.Label)) {
			emit(float64(s.hub.Stats().Watchers))
		})
	reg.Collect("etsc_queue_depth", "Batches accepted but not yet drained, hub-wide.", metrics.TypeGauge,
		func(emit func(float64, ...metrics.Label)) {
			emit(float64(s.hub.Stats().QueuedBatches))
		})
	reg.Collect("etsc_detections_total", "Detections across all live streams (settled and pending).", metrics.TypeCounter,
		func(emit func(float64, ...metrics.Label)) {
			emit(float64(s.hub.Stats().Detections))
		})
	reg.Collect("etsc_recanted_total", "Detections recanted by full-window verification, across live streams.", metrics.TypeCounter,
		func(emit func(float64, ...metrics.Label)) {
			emit(float64(s.hub.Stats().Recanted))
		})

	perStream := func(name, help string, typ metrics.Type, field func(hub.StreamStats) float64) {
		reg.Collect(name, help, typ, func(emit func(float64, ...metrics.Label)) {
			snap := s.hub.Snapshot()
			for _, id := range cappedStreamIDs(snap) {
				emit(field(snap[id]), metrics.L("stream", id))
			}
		})
	}
	perStream("etsc_stream_queue_depth", "Batches queued per stream (capped series; see etsc_stream_series_omitted).",
		metrics.TypeGauge, func(st hub.StreamStats) float64 { return float64(st.QueuedBatches) })
	perStream("etsc_stream_watchers", "Live watch subscriptions per stream.",
		metrics.TypeGauge, func(st hub.StreamStats) float64 { return float64(st.Watchers) })
	perStream("etsc_stream_dropped_batches_total", "Batches rejected per stream under the Drop policy.",
		metrics.TypeCounter, func(st hub.StreamStats) float64 { return float64(st.DroppedBatches) })
	perStream("etsc_stream_shed_batches_total", "Batches evicted per stream under the Shed policy.",
		metrics.TypeCounter, func(st hub.StreamStats) float64 { return float64(st.ShedBatches) })
	perStream("etsc_stream_detections_total", "Detections per stream (settled and pending).",
		metrics.TypeCounter, func(st hub.StreamStats) float64 { return float64(st.Detections) })
	reg.Collect("etsc_stream_series_omitted", "Streams hidden from the per-stream families by the cardinality cap.",
		metrics.TypeGauge, func(emit func(float64, ...metrics.Label)) {
			n := s.hub.Stats().Streams - maxStreamSeries
			if n < 0 {
				n = 0
			}
			emit(float64(n))
		})

	reg.Collect("etsc_checkpoint_writes_total", "Checkpoint files written by the background checkpointer.", metrics.TypeCounter,
		func(emit func(float64, ...metrics.Label)) {
			emit(float64(s.ckptWrites.Load()))
		})
	reg.Collect("etsc_checkpoint_restored_total", "Streams restored from checkpoints at boot.", metrics.TypeCounter,
		func(emit func(float64, ...metrics.Label)) {
			emit(float64(s.ckptRestored.Load()))
		})
	reg.Collect("etsc_checkpoint_fallbacks_total", "Checkpoints whose state was rejected at boot; stream restarted fresh.", metrics.TypeCounter,
		func(emit func(float64, ...metrics.Label)) {
			emit(float64(s.ckptFallbacks.Load()))
		})
	reg.Collect("etsc_checkpoint_skipped_total", "Checkpoint files skipped at boot as undecodable or unservable.", metrics.TypeCounter,
		func(emit func(float64, ...metrics.Label)) {
			emit(float64(s.ckptSkipped.Load()))
		})

	reg.Collect("etsc_kind_detections_total", "Detections per served kind, across its live streams.", metrics.TypeCounter,
		func(emit func(float64, ...metrics.Label)) {
			for kind, n := range s.kindDetections() {
				emit(float64(n), metrics.L("kind", kind))
			}
		})
	reg.Collect("etsc_kind_streams", "Attached streams per served kind.", metrics.TypeGauge,
		func(emit func(float64, ...metrics.Label)) {
			for kind, n := range s.kindStreams() {
				emit(float64(n), metrics.L("kind", kind))
			}
		})

	return reg
}

// cappedStreamIDs returns up to maxStreamSeries stream IDs from snap in
// sorted order — deterministic, so the exposed series set is stable from
// scrape to scrape while the fleet is stable.
func cappedStreamIDs(snap map[string]hub.StreamStats) []string {
	ids := make([]string, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if len(ids) > maxStreamSeries {
		ids = ids[:maxStreamSeries]
	}
	return ids
}

// kindDetections sums live detections per registered kind.
func (s *Server) kindDetections() map[string]int {
	snap := s.hub.Snapshot()
	out := map[string]int{}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, st := range snap {
		if m, ok := s.meta[id]; ok {
			out[m.kind] += st.Detections
		}
	}
	return out
}

// kindStreams counts attached streams per registered kind.
func (s *Server) kindStreams() map[string]int {
	snap := s.hub.Snapshot()
	out := map[string]int{}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range snap {
		if m, ok := s.meta[id]; ok {
			out[m.kind]++
		}
	}
	return out
}

// handleMetrics serves the Prometheus exposition; 404 until EnableMetrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, MethodNotAllowed(r, http.MethodGet))
		return
	}
	s.mu.Lock()
	reg := s.reg
	s.mu.Unlock()
	if reg == nil {
		WriteError(w, &client.APIError{Status: http.StatusNotFound, Code: client.CodeNotFound,
			Message: "metrics not enabled on this server"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := reg.WriteTo(w); err != nil {
		// Connection-level failure; nothing useful to write.
		return
	}
}
