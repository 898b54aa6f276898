// Package client is the typed Go client for the etsc-serve `/v1` wire
// protocol, and the single source of truth for that protocol's request,
// response, and error shapes: internal/serve marshals exactly these
// structs, so server and client cannot drift apart.
//
// Versioning contract (see DESIGN.md §Layer 8): within `/v1`, changes are
// additive only — new endpoints, new optional request fields, new response
// fields. Renaming or removing a field, changing a type, or changing an
// error code's meaning requires a new version prefix (`/v2`) served
// alongside `/v1`.
package client

import (
	"fmt"

	"etsc/internal/hub"
	"etsc/internal/stream"
)

// ErrorCode is a machine-readable error identifier. Codes are part of the
// wire contract: clients may switch on them, so codes are never renamed or
// reused within a protocol version.
type ErrorCode string

// The /v1 error codes.
const (
	// CodeBadJSON — the request body is not syntactically valid JSON.
	CodeBadJSON ErrorCode = "bad_json"
	// CodeBadRequest — a parameter or field value is invalid.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeUnknownKind — the named stream kind is not served.
	CodeUnknownKind ErrorCode = "unknown_kind"
	// CodeBadSpec — the classifier spec failed to parse or train.
	CodeBadSpec ErrorCode = "bad_spec"
	// CodeUnknownStream — the stream id is not registered.
	CodeUnknownStream ErrorCode = "unknown_stream"
	// CodeDuplicateStream — the stream id is already registered.
	CodeDuplicateStream ErrorCode = "duplicate_stream"
	// CodeBackpressure — the stream's queue is full under the Drop
	// policy; retry after the drain catches up (HTTP 429 + Retry-After).
	CodeBackpressure ErrorCode = "backpressure"
	// CodeMethodNotAllowed — the path exists but not with this method.
	CodeMethodNotAllowed ErrorCode = "method_not_allowed"
	// CodeNotFound — no such /v1 endpoint.
	CodeNotFound ErrorCode = "not_found"
	// CodeTooLarge — the request body exceeds the per-request cap.
	CodeTooLarge ErrorCode = "too_large"
	// CodeBadSnapshot — a stream snapshot failed validation: corrupt
	// bytes, a format/version mismatch, or state that does not match the
	// target stream's configuration. The snapshot was not applied.
	CodeBadSnapshot ErrorCode = "bad_snapshot"
	// CodeGap — a positioned push starts beyond the stream's ingest
	// watermark: accepting it would leave a hole in the series. Replay
	// from the watermark (the stream's current position) instead.
	CodeGap ErrorCode = "gap"
	// CodeClosed — the hub is shutting down.
	CodeClosed ErrorCode = "closed"
	// CodeUnavailable — the serving process (or, behind a router, the
	// stream's owner backend) cannot take the request right now: boot
	// restore still in flight, or a backend dead with recovery under way.
	// Transient by construction; retry with backoff (HTTP 503 +
	// Retry-After). Idempotent calls under WithRetry do so automatically.
	CodeUnavailable ErrorCode = "unavailable"
	// CodeInternal — unexpected server-side failure.
	CodeInternal ErrorCode = "internal"
)

// BackendHeader is the response header a routing front tier (etsc-router)
// sets on every proxied response: the name of the owner backend that
// actually served the request. Single-node servers do not set it. The
// typed client copies it into PushResponse.Backend so load generators can
// attribute per-backend latency.
const BackendHeader = "X-Etsc-Backend"

// APIError is the structured error body every /v1 endpoint returns on
// failure, wrapped in ErrorEnvelope. It doubles as the error type the
// typed client returns, with Status carrying the HTTP status code.
type APIError struct {
	Status  int       `json:"-"`
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("etsc-serve: %s (http %d): %s", e.Code, e.Status, e.Message)
}

// ErrorEnvelope is the wire shape of an error response:
// {"error":{"code":"...","message":"..."}}.
type ErrorEnvelope struct {
	Error APIError `json:"error"`
}

// IsCode reports whether err is an *APIError with the given code.
func IsCode(err error, code ErrorCode) bool {
	var ae *APIError
	ok := asAPIError(err, &ae)
	return ok && ae.Code == code
}

// IsBackpressure reports whether err is the hub rejecting a batch under
// the Drop policy (HTTP 429) — the one error a pusher is expected to
// handle by backing off and retrying.
func IsBackpressure(err error) bool { return IsCode(err, CodeBackpressure) }

// CreateStreamRequest registers a stream (POST /v1/streams). Exactly the
// per-stream pipeline configuration: a served kind names the defaults, an
// optional classifier spec (etsc.ParseSpec form) retrains the detector
// against the kind's training set, and the remaining fields override the
// kind's monitor knobs. Nil pointer fields mean "kind default".
type CreateStreamRequest struct {
	ID string `json:"id"`
	// Kind names the served stream family (GET /v1/streams lists them via
	// the server's kinds); empty selects the server's default kind.
	Kind string `json:"kind,omitempty"`
	// Spec, when set, replaces the kind's classifier: an etsc registry
	// spec ("algo:key=value,...") trained on the kind's training set.
	Spec string `json:"spec,omitempty"`
	// Engine is accepted for compatibility and ignored: "", "pruned" and
	// "eager" all run the one engine; any other value is a bad request.
	Engine string `json:"engine,omitempty"`
	// Stride/Step/Suppress override the kind's monitor geometry.
	Stride   *int `json:"stride,omitempty"`
	Step     *int `json:"step,omitempty"`
	Suppress *int `json:"suppress,omitempty"`
}

// StreamInfo is one registered stream's description and live stats. Shard
// is always 0: a server runs one hub, and the field stays on the wire
// because /v1 changes are additive only. Streams spread across processes
// instead, placed by etsc-router with placement.Index. Engine is always
// "eager", the one inference engine, for the same reason.
type StreamInfo struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	Spec   string          `json:"spec"`
	Engine string          `json:"engine"`
	Shard  int             `json:"shard"`
	Stats  hub.StreamStats `json:"stats"`
}

// StreamList is GET /v1/streams, sorted by stream id.
type StreamList struct {
	Streams []StreamInfo `json:"streams"`
}

// PushRequest is the batch-ingest body (POST /v1/streams/{id}/push).
type PushRequest struct {
	Points []float64 `json:"points"`
	// At, when set, is the absolute stream position of Points[0] — the
	// idempotent replay form (hub.PushAt). Points at positions the stream
	// has already accepted are skipped, so re-sending a positioned batch
	// after a lost response is safe; a position beyond the stream's ingest
	// watermark fails with CodeGap (nothing may be skipped over).
	At *int `json:"at,omitempty"`
}

// PushResponse acknowledges an accepted batch. Backend is not on the
// wire: the client fills it from the BackendHeader response header when a
// routing front tier served the push ("" direct against a single node).
type PushResponse struct {
	Stream  string `json:"stream"`
	Queued  int    `json:"queued"`
	Backend string `json:"-"`
}

// setBackend records the routing front tier's owner-backend echo; the
// client's response path calls it on types that implement the hook.
func (r *PushResponse) setBackend(name string) { r.Backend = name }

// Health is GET /v1/healthz: the cheap liveness/readiness probe. Status
// is "ok" once the server is ready (boot-time checkpoint restore, if any,
// has completed); while restore is in flight the endpoint answers 503
// with a CodeUnavailable envelope instead.
type Health struct {
	Status  string `json:"status"`
	Streams int    `json:"streams"`
}

// DetectionsPage is GET /v1/detections?stream=ID&since=N: the *settled*
// detections with index >= since — those whose Recanted flag is final
// (their full window has been verified, or the stream has no verifier) —
// plus the cursor to pass as the next `since`. The settled prefix is
// append-only and immutable, so polling with the returned Next yields
// each detection exactly once, in order, in its final state. Total counts
// the whole live transcript; entries in (Next, Total] are still awaiting
// full-window verification and arrive on a later poll or in the
// DELETE-time final report.
type DetectionsPage struct {
	Stream     string             `json:"stream"`
	Since      int                `json:"since"`
	Next       int                `json:"next"`
	Total      int                `json:"total"`
	Detections []stream.Detection `json:"detections"`
}

// WatchFrame is one frame of GET /v1/streams/{id}/watch — the live
// subscription feed. Detection frames carry one settled detection and its
// transcript index; the terminal frame has Final set, no detection, and
// Index == Next == the settled total. Next is always the resume cursor: a
// subscriber that reconnects with ?since=Next (or the SSE Last-Event-ID
// convention, since = last id + 1) sees each detection exactly once, and
// the concatenated frames of any reconnect sequence equal the cursor API's
// paged transcript byte-for-byte.
type WatchFrame struct {
	Stream    string            `json:"stream"`
	Index     int               `json:"index"`
	Next      int               `json:"next"`
	Detection *stream.Detection `json:"detection,omitempty"`
	Final     bool              `json:"final,omitempty"`
}

// StreamSnapshot is a stream's durable state as served by
// GET /v1/streams/{id}/snapshot and accepted back by POST to the same
// path. State is the opaque, self-validating hub snapshot frame
// (CRC-protected and version-tagged; base64 on the wire via
// encoding/json). Kind and Spec describe how to rebuild the trained
// classifier — models are deliberately NOT serialized; the restoring
// server retrains from its own kind registry and the snapshot carries only
// runtime state (see DESIGN.md §Layer 12). Engine is "eager" on export and
// is checked like CreateStreamRequest.Engine on restore.
type StreamSnapshot struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Spec     string `json:"spec"`
	Engine   string `json:"engine"`
	Position int    `json:"position"`
	State    []byte `json:"state"`
}

// StreamReport is the final state DELETE /v1/streams/{id} returns; the
// alias pins hub.StreamReport's shape into the wire contract.
type StreamReport = hub.StreamReport

// Totals is GET /v1/stats; the alias pins hub.Totals into the contract.
type Totals = hub.Totals

// BackendTotals is one backend's row in a router's /v1/stats fan-out:
// the backend's name and probe state plus its own hub totals (zero-valued
// when the backend is dead and could not be asked).
type BackendTotals struct {
	Backend string `json:"backend"`
	Alive   bool   `json:"alive"`
	hub.Totals
}

// RouterStatsResponse is GET /v1/stats as served by etsc-router: the
// fleet-wide sum (flattened, so clients decoding plain Totals keep
// working against a router unchanged) plus one row per backend in table
// order. Dead backends appear with Alive false and zero totals.
type RouterStatsResponse struct {
	hub.Totals
	Backends []BackendTotals `json:"backends,omitempty"`
}
