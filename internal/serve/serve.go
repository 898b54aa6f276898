// Package serve is the HTTP face of the multi-stream monitoring hub: the
// versioned `/v1` REST API (wire types in internal/client, the protocol's
// single source of truth).
//
//	POST   /v1/streams            register a stream (kind or spec, geometry)
//	GET    /v1/streams            list streams with live stats
//	GET    /v1/streams/{id}       one stream's description
//	POST   /v1/streams/{id}/push  batch ingest {"points":[...]}; +"at" = positioned replay
//	DELETE /v1/streams/{id}       detach; returns the final report
//	GET    /v1/streams/{id}/watch live settled-detection feed (SSE; ?format=ndjson)
//	GET    /v1/streams/{id}/snapshot   export the stream's durable state
//	POST   /v1/streams/{id}/snapshot   recreate a stream from a snapshot
//	GET    /v1/stats              hub totals
//	GET    /v1/detections?stream=ID&since=N   cursor-paged detections
//	GET    /v1/healthz            readiness probe (503 while boot restore runs)
//	GET    /metrics               Prometheus text exposition (after EnableMetrics)
//
// Every `/v1` failure is a structured JSON error
// {"error":{"code":"...","message":"..."}} with a machine-readable code
// (client.ErrorCode). Registration is explicit: pushing to an unregistered
// stream is CodeUnknownStream, not a lazy attach — a production fleet
// should not materialize pipelines from typos.
package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"etsc/internal/client"
	"etsc/internal/etsc"
	"etsc/internal/hub"
	"etsc/internal/metrics"
)

// maxBody bounds one request's body (~32 MB ≈ 1.5M points as text) so a
// single client cannot balloon process memory.
const maxBody = 32 << 20

// Server routes HTTP traffic onto one hub.
type Server struct {
	hub   *hub.Hub
	kinds map[string]hub.Kind
	deflt string
	mux   *http.ServeMux
	// reg is the /metrics registry, nil until EnableMetrics; handlers
	// read it through the atomic-friendly accessor under s.mu.
	reg *metrics.Registry

	mu   sync.Mutex
	meta map[string]streamMeta

	// Checkpoint counters (see checkpoint.go); exposed via /metrics.
	ckptWrites    atomic.Int64
	ckptRestored  atomic.Int64
	ckptFallbacks atomic.Int64
	ckptSkipped   atomic.Int64

	// restoring counts boot-restore passes in flight; /v1/healthz answers
	// 503/unavailable while it is non-zero so health probers (the router
	// front tier) do not route traffic at a half-restored fleet.
	restoring atomic.Int32
}

// streamMeta is the registration-time description of an attached stream.
type streamMeta struct {
	kind string
	spec string
}

// engineName is the engine every stream reports. /v1 keeps the "engine"
// field on the wire; servers run one inference engine, the eager bank.
const engineName = "eager"

// checkEngine validates a request's "engine" field: empty and the two
// retired selector values are accepted and ignored, anything else is a
// bad request. Registration and snapshot restore share it.
func checkEngine(engine string) *client.APIError {
	switch engine {
	case "", "pruned", "eager":
		return nil
	}
	return badRequest(fmt.Sprintf("unknown engine %q (want pruned or eager)", engine))
}

// New builds the handler over an attached hub and the kinds it serves.
// The first kind is the default for requests that name none.
func New(h *hub.Hub, kinds []hub.Kind) (*Server, error) {
	if len(kinds) == 0 {
		return nil, errors.New("serve: no stream kinds")
	}
	s := &Server{
		hub:   h,
		kinds: map[string]hub.Kind{},
		deflt: kinds[0].Name,
		meta:  map[string]streamMeta{},
	}
	for _, k := range kinds {
		if _, dup := s.kinds[k.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate kind %q", k.Name)
		}
		s.kinds[k.Name] = k
	}
	mux := http.NewServeMux()
	// The versioned API. One prefix handler keeps full control over
	// method dispatch so 404/405 carry structured bodies too.
	mux.HandleFunc("/v1/", s.handleV1)
	// Prometheus text exposition; 404s until EnableMetrics is called.
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// KindNames lists the served kinds, sorted.
func (s *Server) KindNames() []string {
	out := make([]string, 0, len(s.kinds))
	for name := range s.kinds {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---- /v1 routing ----

// handleV1 dispatches /v1/... paths manually: the error contract (JSON
// envelope with a code on every failure, including 404 and 405) is part
// of the protocol, so routing misses cannot fall through to the mux's
// plain-text defaults.
func (s *Server) handleV1(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/")
	seg := strings.Split(rest, "/")
	switch {
	case rest == "streams":
		switch r.Method {
		case http.MethodPost:
			s.v1CreateStream(w, r)
		case http.MethodGet:
			s.v1ListStreams(w)
		default:
			writeAPIError(w, methodNotAllowed(r, http.MethodGet, http.MethodPost))
		}
	case len(seg) == 2 && seg[0] == "streams" && seg[1] != "":
		id := seg[1]
		switch r.Method {
		case http.MethodGet:
			s.v1GetStream(w, id)
		case http.MethodDelete:
			s.v1DeleteStream(w, id)
		default:
			writeAPIError(w, methodNotAllowed(r, http.MethodGet, http.MethodDelete))
		}
	case len(seg) == 3 && seg[0] == "streams" && seg[1] != "" && seg[2] == "push":
		if r.Method != http.MethodPost {
			writeAPIError(w, methodNotAllowed(r, http.MethodPost))
			return
		}
		s.v1Push(w, r, seg[1])
	case len(seg) == 3 && seg[0] == "streams" && seg[1] != "" && seg[2] == "snapshot":
		switch r.Method {
		case http.MethodGet:
			s.v1SnapshotStream(w, seg[1])
		case http.MethodPost:
			s.v1RestoreStream(w, r, seg[1])
		default:
			writeAPIError(w, methodNotAllowed(r, http.MethodGet, http.MethodPost))
		}
	case len(seg) == 3 && seg[0] == "streams" && seg[1] != "" && seg[2] == "watch":
		if r.Method != http.MethodGet {
			writeAPIError(w, methodNotAllowed(r, http.MethodGet))
			return
		}
		s.v1Watch(w, r, seg[1])
	case rest == "healthz":
		if r.Method != http.MethodGet {
			writeAPIError(w, methodNotAllowed(r, http.MethodGet))
			return
		}
		s.v1Healthz(w)
	case rest == "stats":
		if r.Method != http.MethodGet {
			writeAPIError(w, methodNotAllowed(r, http.MethodGet))
			return
		}
		writeJSON(w, http.StatusOK, s.hub.Stats())
	case rest == "detections":
		if r.Method != http.MethodGet {
			writeAPIError(w, methodNotAllowed(r, http.MethodGet))
			return
		}
		s.v1Detections(w, r)
	default:
		writeAPIError(w, &client.APIError{
			Status:  http.StatusNotFound,
			Code:    client.CodeNotFound,
			Message: fmt.Sprintf("no /v1 endpoint %q", r.URL.Path),
		})
	}
}

// v1Healthz is the router-facing probe (GET /v1/healthz): a cheap 200
// once the server is ready, 503/unavailable while a boot-time checkpoint
// restore is still in flight. Readiness, not just liveness — a prober
// must not route traffic at a fleet member that has not finished
// rebuilding its streams.
func (s *Server) v1Healthz(w http.ResponseWriter) {
	if s.restoring.Load() > 0 {
		writeAPIError(w, &client.APIError{
			Status:  http.StatusServiceUnavailable,
			Code:    client.CodeUnavailable,
			Message: "checkpoint restore in flight; not ready",
		})
		return
	}
	writeJSON(w, http.StatusOK, client.Health{Status: "ok", Streams: s.hub.Stats().Streams})
}

// v1CreateStream registers a stream from a declarative description: a
// served kind for the pipeline defaults, an optional etsc spec retrained
// on the kind's training set, and per-stream geometry overrides.
func (s *Server) v1CreateStream(w http.ResponseWriter, r *http.Request) {
	var req client.CreateStreamRequest
	if apiErr := decodeJSON(r, w, &req); apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	if req.ID == "" {
		writeAPIError(w, badRequest("missing stream id"))
		return
	}
	// Ids live in /v1/streams/{id}/... path segments; one containing a
	// slash would register fine and then be unroutable (the decoded
	// request path splits on it), and "." / ".." are rewritten away by
	// the mux's path cleaning. Reject them all at registration.
	if strings.Contains(req.ID, "/") || req.ID == "." || req.ID == ".." {
		writeAPIError(w, badRequest(fmt.Sprintf("stream id %q must be a single path segment (no '/', not %q or %q)", req.ID, ".", "..")))
		return
	}
	meta, sc, apiErr := s.resolveKind(cmp.Or(req.Kind, s.deflt), req.Spec)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	if apiErr := checkEngine(req.Engine); apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	if req.Stride != nil {
		sc.Stride = *req.Stride
	}
	if req.Step != nil {
		sc.Step = *req.Step
	}
	if req.Suppress != nil {
		sc.Suppress = *req.Suppress
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.hub.Attach(req.ID, sc); err != nil {
		writeAPIError(w, attachError(err))
		return
	}
	s.meta[req.ID] = meta
	writeJSON(w, http.StatusCreated, s.infoLocked(req.ID, hub.StreamStats{}))
}

// infoLocked renders one stream's StreamInfo; s.mu must be held.
func (s *Server) infoLocked(id string, stats hub.StreamStats) client.StreamInfo {
	m := s.meta[id]
	return client.StreamInfo{ID: id, Kind: m.kind, Spec: m.spec, Engine: engineName, Stats: stats}
}

func (s *Server) v1ListStreams(w http.ResponseWriter) {
	snap := s.hub.Snapshot()
	ids := make([]string, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := client.StreamList{Streams: make([]client.StreamInfo, 0, len(ids))}
	s.mu.Lock()
	for _, id := range ids {
		out.Streams = append(out.Streams, s.infoLocked(id, snap[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) v1GetStream(w http.ResponseWriter, id string) {
	snap := s.hub.Snapshot()
	stats, ok := snap[id]
	if !ok {
		writeAPIError(w, unknownStream(id))
		return
	}
	s.mu.Lock()
	info := s.infoLocked(id, stats)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) v1Push(w http.ResponseWriter, r *http.Request, id string) {
	var req client.PushRequest
	if apiErr := decodeJSON(r, w, &req); apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	var err error
	if req.At != nil {
		// Positioned replay: points below the stream's watermark are
		// skipped, a gap beyond it is refused — see client.PushRequest.At.
		if *req.At < 0 {
			writeAPIError(w, badRequest(fmt.Sprintf("bad at=%d: want a non-negative position", *req.At)))
			return
		}
		err = s.hub.PushAt(id, *req.At, req.Points)
	} else {
		err = s.hub.Push(id, req.Points)
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, client.PushResponse{Stream: id, Queued: len(req.Points)})
	case errors.Is(err, hub.ErrGap):
		writeAPIError(w, &client.APIError{
			Status:  http.StatusConflict,
			Code:    client.CodeGap,
			Message: err.Error(),
		})
	case errors.Is(err, hub.ErrDropped):
		// Backpressure is the Drop policy doing its job: tell the client
		// to retry the whole batch after the drain catches up.
		w.Header().Set("Retry-After", "1")
		writeAPIError(w, &client.APIError{
			Status:  http.StatusTooManyRequests,
			Code:    client.CodeBackpressure,
			Message: err.Error(),
		})
	case errors.Is(err, hub.ErrUnknownStream):
		writeAPIError(w, unknownStream(id))
	case errors.Is(err, hub.ErrClosed):
		writeAPIError(w, hubClosed(err))
	default:
		writeAPIError(w, badRequest(err.Error()))
	}
}

func (s *Server) v1Detections(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("stream")
	if id == "" {
		writeAPIError(w, badRequest("missing ?stream="))
		return
	}
	since := 0
	if raw := r.URL.Query().Get("since"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeAPIError(w, badRequest(fmt.Sprintf("bad ?since=%q: want a non-negative integer", raw)))
			return
		}
		since = n
	}
	dets, settled, err := s.hub.DetectionsSettled(id)
	if err != nil {
		writeAPIError(w, unknownStream(id))
		return
	}
	// Only the settled prefix is paged: those Recanted flags are final,
	// so a cursor consumer sees each detection exactly once in its final
	// state. Entries past Next (up to Total) still await full-window
	// verification and surface on a later poll or in the final report.
	if since > settled {
		since = settled
	}
	writeJSON(w, http.StatusOK, client.DetectionsPage{
		Stream:     id,
		Since:      since,
		Next:       settled,
		Total:      len(dets),
		Detections: dets[since:settled],
	})
}

func (s *Server) v1DeleteStream(w http.ResponseWriter, id string) {
	rep, err := s.hub.Detach(id)
	if err != nil {
		if errors.Is(err, hub.ErrClosed) {
			writeAPIError(w, hubClosed(err))
			return
		}
		writeAPIError(w, unknownStream(id))
		return
	}
	s.mu.Lock()
	delete(s.meta, id)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, rep)
}

// v1SnapshotStream exports a stream's durable state
// (GET /v1/streams/{id}/snapshot). The export cuts at a batch boundary
// and the stream keeps running; the body carries the opaque
// self-validating hub frame plus the kind/spec the restoring
// server needs to rebuild the trained classifier — models are not
// serialized (DESIGN.md §Layer 12).
func (s *Server) v1SnapshotStream(w http.ResponseWriter, id string) {
	data, err := s.hub.Export(id)
	switch {
	case err == nil:
	case errors.Is(err, hub.ErrClosed):
		writeAPIError(w, hubClosed(err))
		return
	default:
		writeAPIError(w, unknownStream(id))
		return
	}
	_, pos, err := hub.SnapshotInfo(data)
	if err != nil {
		writeAPIError(w, &client.APIError{
			Status:  http.StatusInternalServerError,
			Code:    client.CodeInternal,
			Message: fmt.Sprintf("exported snapshot failed self-validation: %v", err),
		})
		return
	}
	s.mu.Lock()
	m := s.meta[id]
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, client.StreamSnapshot{
		ID: id, Kind: m.kind, Spec: m.spec, Engine: engineName,
		Position: pos, State: data,
	})
}

// v1RestoreStream recreates a stream from an exported snapshot
// (POST /v1/streams/{id}/snapshot). The classifier is retrained from the
// named kind (and spec override, when one was used) through the same
// pipeline as registration; the snapshot's state frame then restores the
// runtime position, open candidates, transcript, and watch boundary.
// Corrupt or mismatched state fails with CodeBadSnapshot and attaches
// nothing.
func (s *Server) v1RestoreStream(w http.ResponseWriter, r *http.Request, id string) {
	var req client.StreamSnapshot
	if apiErr := decodeJSON(r, w, &req); apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	if req.ID != "" && req.ID != id {
		writeAPIError(w, badRequest(fmt.Sprintf("snapshot id %q does not match path id %q", req.ID, id)))
		return
	}
	if strings.Contains(id, "/") || id == "." || id == ".." {
		writeAPIError(w, badRequest(fmt.Sprintf("stream id %q must be a single path segment", id)))
		return
	}
	// The state frame names its stream; a mismatch means the caller mixed
	// up snapshots, which the typed error should say before the hub's own
	// validation runs.
	sid, _, err := hub.SnapshotInfo(req.State)
	if err != nil {
		writeAPIError(w, badSnapshot(err))
		return
	}
	if sid != id {
		writeAPIError(w, badSnapshot(fmt.Errorf("state frame is for stream %q, not %q", sid, id)))
		return
	}
	meta, sc, apiErr := s.resolveKind(cmp.Or(req.Kind, s.deflt), req.Spec)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	if apiErr := checkEngine(req.Engine); apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.hub.Restore(req.State, sc); err != nil {
		writeAPIError(w, restoreError(err))
		return
	}
	s.meta[id] = meta
	stats := s.hub.Snapshot()[id]
	writeJSON(w, http.StatusCreated, s.infoLocked(id, stats))
}

// resolveKind resolves a registration's kind and spec into the stream's
// metadata and pipeline. An empty spec, or the kind's own, shares the
// kind's trained detector; any other spec retrains the kind's classifier
// on its training set. Create, snapshot restore and boot restore all
// resolve through it, so they accept, refuse and describe a (kind, spec)
// pair alike.
func (s *Server) resolveKind(kindName, spec string) (streamMeta, hub.StreamConfig, *client.APIError) {
	kind, ok := s.kinds[kindName]
	if !ok {
		return streamMeta{}, hub.StreamConfig{}, &client.APIError{
			Status:  http.StatusBadRequest,
			Code:    client.CodeUnknownKind,
			Message: fmt.Sprintf("unknown kind %q (served: %s)", kindName, strings.Join(s.KindNames(), ", ")),
		}
	}
	meta := streamMeta{kind: kind.Name, spec: kind.Spec.String()}
	if spec == "" || spec == meta.spec {
		return meta, kind.Config, nil
	}
	sc, err := specStreamConfig(kind, spec)
	if err != nil {
		return streamMeta{}, hub.StreamConfig{}, &client.APIError{
			Status:  http.StatusBadRequest,
			Code:    client.CodeBadSpec,
			Message: err.Error(),
		}
	}
	meta.spec = spec
	return meta, sc, nil
}

// specStreamConfig renders a kind's StreamConfig with its classifier
// replaced by one trained from spec against the kind's training set — the
// exact pipeline a /v1 registration with a spec override runs.
func specStreamConfig(kind hub.Kind, spec string) (hub.StreamConfig, error) {
	clf, err := etsc.TrainSpecString(spec, kind.TrainSet)
	if err != nil {
		return hub.StreamConfig{}, err
	}
	sc := kind.Config
	sc.Classifier = clf
	return sc, nil
}

// ---- /v1 helpers ----

// decodeJSON reads a size-capped JSON body. A non-nil return is the
// structured error to write.
func decodeJSON(r *http.Request, w http.ResponseWriter, into any) *client.APIError {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	if err := json.NewDecoder(body).Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &client.APIError{
				Status:  http.StatusRequestEntityTooLarge,
				Code:    client.CodeTooLarge,
				Message: fmt.Sprintf("body over %d bytes; split the batch", tooBig.Limit),
			}
		}
		return &client.APIError{
			Status:  http.StatusBadRequest,
			Code:    client.CodeBadJSON,
			Message: fmt.Sprintf("bad JSON body: %v", err),
		}
	}
	return nil
}

func badRequest(msg string) *client.APIError {
	return &client.APIError{Status: http.StatusBadRequest, Code: client.CodeBadRequest, Message: msg}
}

func unknownStream(id string) *client.APIError {
	return &client.APIError{
		Status:  http.StatusNotFound,
		Code:    client.CodeUnknownStream,
		Message: fmt.Sprintf("unknown stream %q", id),
	}
}

func hubClosed(err error) *client.APIError {
	return &client.APIError{Status: http.StatusServiceUnavailable, Code: client.CodeClosed, Message: err.Error()}
}

func badSnapshot(err error) *client.APIError {
	return &client.APIError{Status: http.StatusBadRequest, Code: client.CodeBadSnapshot, Message: err.Error()}
}

// restoreError maps a hub.Restore failure onto the wire contract:
// validation failures are CodeBadSnapshot, an occupied id is the same
// conflict as a duplicate registration, a closing hub is CodeClosed.
func restoreError(err error) *client.APIError {
	switch {
	case errors.Is(err, hub.ErrDuplicate):
		return &client.APIError{Status: http.StatusConflict, Code: client.CodeDuplicateStream, Message: err.Error()}
	case errors.Is(err, hub.ErrClosed):
		return hubClosed(err)
	default:
		return badSnapshot(err)
	}
}

func attachError(err error) *client.APIError {
	switch {
	case errors.Is(err, hub.ErrDuplicate):
		return &client.APIError{Status: http.StatusConflict, Code: client.CodeDuplicateStream, Message: err.Error()}
	case errors.Is(err, hub.ErrClosed):
		return hubClosed(err)
	default:
		return badRequest(err.Error())
	}
}

func methodNotAllowed(r *http.Request, allow ...string) *client.APIError {
	return &client.APIError{
		Status:  http.StatusMethodNotAllowed,
		Code:    client.CodeMethodNotAllowed,
		Message: fmt.Sprintf("%s not allowed on %s (allow: %s)", r.Method, r.URL.Path, strings.Join(allow, ", ")),
	}
}

func writeAPIError(w http.ResponseWriter, ae *client.APIError) {
	writeJSON(w, ae.Status, client.ErrorEnvelope{Error: *ae})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("serve: encode: %v", err)
	}
}
