// The /v1 request contract that etsc-serve and etsc-router share: the
// route table, the body cap, and the error writers. The router answers
// the fan-out endpoints and /watch itself and forwards every other
// endpoint to the stream's owner, so a route added here is served by
// both binaries with no router edit.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"

	"etsc/internal/client"
)

// MaxBody bounds one request's body (~32 MB ≈ 1.5M points as text) so a
// single client cannot balloon process memory.
const MaxBody = 32 << 20

// Endpoint is one /v1 operation: a method and a URL pattern in which {id}
// stands for the stream id, either a non-empty path segment or the value
// of the query parameter it is bound to.
type Endpoint string

// The /v1 endpoints.
const (
	EndpointList       Endpoint = "GET /v1/streams"
	EndpointCreate     Endpoint = "POST /v1/streams"
	EndpointGet        Endpoint = "GET /v1/streams/{id}"
	EndpointDelete     Endpoint = "DELETE /v1/streams/{id}"
	EndpointPush       Endpoint = "POST /v1/streams/{id}/push"
	EndpointSnapshot   Endpoint = "GET /v1/streams/{id}/snapshot"
	EndpointRestore    Endpoint = "POST /v1/streams/{id}/snapshot"
	EndpointWatch      Endpoint = "GET /v1/streams/{id}/watch"
	EndpointStats      Endpoint = "GET /v1/stats"
	EndpointDetections Endpoint = "GET /v1/detections?stream={id}"
	EndpointHealthz    Endpoint = "GET /v1/healthz"
)

// Endpoints is the /v1 route table. ParseV1 matches requests against it
// in order; the methods of the endpoints that share a path, in order,
// make that path's 405 allow list.
var Endpoints = []Endpoint{
	EndpointList, EndpointCreate,
	EndpointGet, EndpointDelete,
	EndpointPush,
	EndpointSnapshot, EndpointRestore,
	EndpointWatch,
	EndpointStats,
	EndpointDetections,
	EndpointHealthz,
}

// ParseV1 maps a /v1 request onto its endpoint and stream id. The id is
// empty for an endpoint whose pattern has no {id}; a create carries its
// id in the body. A non-nil error is the envelope to answer: 404 for an
// unknown path, 405 for a known path under another method, 400 for a
// missing query-bound id. Routing a push allocates nothing.
func ParseV1(r *http.Request) (Endpoint, string, *client.APIError) {
	var allow []string
	for _, ep := range Endpoints {
		method, pattern, _ := strings.Cut(string(ep), " ")
		id, ok := match(pattern, r)
		switch {
		case !ok:
		case method != r.Method:
			allow = append(allow, method)
		case id == "" && strings.Contains(pattern, "{id}"):
			// Only a query-bound id can be absent from a matching path.
			_, param, _ := strings.Cut(pattern, "?")
			return "", "", BadRequest("missing ?" + strings.TrimSuffix(param, "{id}"))
		default:
			return ep, id, nil
		}
	}
	if len(allow) > 0 {
		return "", "", MethodNotAllowed(r, allow...)
	}
	return "", "", &client.APIError{
		Status:  http.StatusNotFound,
		Code:    client.CodeNotFound,
		Message: fmt.Sprintf("no /v1 endpoint %q", r.URL.Path),
	}
}

// match reports whether r's path fits pattern, and returns the stream id
// the pattern binds: the {id} path segment, or the query parameter bound
// by "?name={id}" (empty when absent).
func match(pattern string, r *http.Request) (id string, ok bool) {
	path := r.URL.Path
	pattern, param, inQuery := strings.Cut(pattern, "?")
	if inQuery {
		if path != pattern {
			return "", false
		}
		return r.URL.Query().Get(strings.TrimSuffix(param, "={id}")), true
	}
	prefix, suffix, scoped := strings.Cut(pattern, "{id}")
	if !scoped {
		return "", path == pattern
	}
	if len(path) <= len(prefix)+len(suffix) || !strings.HasPrefix(path, prefix) || !strings.HasSuffix(path, suffix) {
		return "", false
	}
	id = path[len(prefix) : len(path)-len(suffix)]
	return id, !strings.Contains(id, "/")
}

// BodyError maps a failure to read or decode a request body onto its
// envelope: 413 over MaxBody, else 400 bad_json.
func BodyError(err error) *client.APIError {
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

// BadRequest is the 400 bad_request envelope.
func BadRequest(msg string) *client.APIError {
	return &client.APIError{Status: http.StatusBadRequest, Code: client.CodeBadRequest, Message: msg}
}

// Unavailable is the 503 unavailable envelope: the server, or the backend
// a router needs, cannot answer now; WriteError adds Retry-After: 1.
func Unavailable(msg string) *client.APIError {
	return &client.APIError{Status: http.StatusServiceUnavailable, Code: client.CodeUnavailable, Message: msg}
}

// MethodNotAllowed is the 405 envelope naming the methods r's path allows.
func MethodNotAllowed(r *http.Request, allow ...string) *client.APIError {
	return &client.APIError{
		Status:  http.StatusMethodNotAllowed,
		Code:    client.CodeMethodNotAllowed,
		Message: fmt.Sprintf("%s not allowed on %s (allow: %s)", r.Method, r.URL.Path, strings.Join(allow, ", ")),
	}
}

// WriteError writes ae's envelope. A 503 also carries Retry-After: 1, as
// every 503 of the /v1 contract is transient.
func WriteError(w http.ResponseWriter, ae *client.APIError) {
	if ae.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, ae.Status, client.ErrorEnvelope{Error: *ae})
}

// WriteJSON writes v as a JSON body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("serve: encode: %v", err)
	}
}
