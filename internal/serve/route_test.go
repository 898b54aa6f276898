package serve_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"etsc/internal/client"
	"etsc/internal/serve"
)

// TestParseV1 pins the route table on paths the mux never hands over
// (it redirects an empty segment to the canonical path) and the 405
// allow lists, whose order is the table's.
func TestParseV1(t *testing.T) {
	for _, tc := range []struct {
		method, target string
		ep             serve.Endpoint
		id             string
		status         int
		msg            string
	}{
		{method: http.MethodPost, target: "/v1/streams/s1/push", ep: serve.EndpointPush, id: "s1"},
		{method: http.MethodGet, target: "/v1/streams/push", ep: serve.EndpointGet, id: "push"},
		{method: http.MethodGet, target: "/v1/detections?stream=s1&since=3", ep: serve.EndpointDetections, id: "s1"},
		{method: http.MethodPost, target: "/v1/streams", ep: serve.EndpointCreate},
		{method: http.MethodPost, target: "/v1/streams//push", status: http.StatusNotFound},
		{method: http.MethodGet, target: "/v1/streams/s1/", status: http.StatusNotFound},
		{method: http.MethodGet, target: "/v1/streams/s1/push/x", status: http.StatusNotFound},
		{method: http.MethodGet, target: "/v1/detections", status: http.StatusBadRequest, msg: "missing ?stream="},
		{method: http.MethodDelete, target: "/v1/streams", status: http.StatusMethodNotAllowed,
			msg: "DELETE not allowed on /v1/streams (allow: GET, POST)"},
		{method: http.MethodPut, target: "/v1/streams/s1", status: http.StatusMethodNotAllowed,
			msg: "PUT not allowed on /v1/streams/s1 (allow: GET, DELETE)"},
		{method: http.MethodDelete, target: "/v1/streams/s1/snapshot", status: http.StatusMethodNotAllowed,
			msg: "DELETE not allowed on /v1/streams/s1/snapshot (allow: GET, POST)"},
	} {
		ep, id, apiErr := serve.ParseV1(httptest.NewRequest(tc.method, tc.target, nil))
		if tc.status != 0 {
			if apiErr == nil || apiErr.Status != tc.status || (tc.msg != "" && apiErr.Message != tc.msg) {
				t.Errorf("%s %s: %q %q %+v, want %d %q", tc.method, tc.target, ep, id, apiErr, tc.status, tc.msg)
			}
			continue
		}
		if apiErr != nil || ep != tc.ep || id != tc.id {
			t.Errorf("%s %s: %q %q %+v, want %q %q", tc.method, tc.target, ep, id, apiErr, tc.ep, tc.id)
		}
	}
}

// TestParseV1PushAllocFree pins that routing a push allocates nothing:
// ParseV1 runs on every point batch.
func TestParseV1PushAllocFree(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/streams/s1/push", nil)
	var apiErr *client.APIError
	allocs := testing.AllocsPerRun(200, func() {
		_, _, apiErr = serve.ParseV1(r)
	})
	if apiErr != nil || allocs != 0 {
		t.Errorf("ParseV1 on a push: %v allocations per run, error %+v; want 0, nil", allocs, apiErr)
	}
}
