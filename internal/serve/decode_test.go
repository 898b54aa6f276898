package serve_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/serve"
	"etsc/internal/serve/servetest"
)

// canonicalPush renders a push body the way client.Push does: n points
// and, when at >= 0, a position.
func canonicalPush(n, at int) []byte {
	points := make([]float64, n)
	for i := range points {
		points[i] = math.Sin(float64(i)) * 1e3
	}
	req := client.PushRequest{Points: points}
	if at >= 0 {
		req.At = &at
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// TestPushDecodeAllocFree pins that decoding a canonical push body into a
// reused request allocates nothing: the handler decodes one per batch.
func TestPushDecodeAllocFree(t *testing.T) {
	for _, body := range [][]byte{canonicalPush(64, -1), canonicalPush(64, 1234567)} {
		req := &client.PushRequest{Points: make([]float64, 0, 64), At: new(int)}
		points, at := req.Points, req.At
		var apiErr *client.APIError
		allocs := testing.AllocsPerRun(200, func() {
			req.Points, req.At = points, at
			apiErr = serve.DecodeBody(body, req)
		})
		if apiErr != nil || allocs != 0 {
			t.Errorf("%s: %v allocations per decode, error %+v; want 0, nil", body[:20], allocs, apiErr)
		}
		if len(req.Points) != 64 {
			t.Errorf("%s: decoded %d points, want 64", body[:20], len(req.Points))
		}
	}
}

// pushOracle is the push body as json.Unmarshal reads it, with points as
// pointers so that a null element shows.
type pushOracle struct {
	Points []*float64 `json:"points"`
	At     *int       `json:"at,omitempty"`
}

// FuzzPushDecode checks the push decoder against encoding/json: a body is
// accepted exactly when json.Unmarshal accepts it and the winning points
// hold no null, and then Points (bit for bit) and At are what json.Unmarshal
// decodes, whatever the request held before.
func FuzzPushDecode(f *testing.F) {
	for _, seed := range []string{
		string(canonicalPush(8, -1)), string(canonicalPush(3, 7)),
		`{"points":[1,2,3]}{"points":[4,5]}`, `{"points":[1,null,3]}`, `{"points":null}`, `null`, ` {} `,
		`{"points":[null],"points":[1]}`, `{"points":[1],"points":[null]}`, `{"at":5,"at":null}`,
		`{"POINTS":[1],"At":2}`, `{"pointſ":[1]}`, `{"points":[2],"at":-0}`, `{"pöints":[1]}`,
		`{"x":{"y":[1,"s",true,false,null,{}]},"points":[-0.0,1e308,4.9e-324]}`,
		`{"points":[1e400]}`, `{"points":[1e-400]}`, `{"at":9223372036854775808}`, `{"at":1.0}`, `{"at":"1"}`,
		`{"points":[01]}`, `{"points":[1.]}`, `{"points":[.5]}`, `{"points":[+1]}`, `{"points":[1,]}`,
		`{"points":[1]`, `{"points":"1"}`, `[1]`, `"x"`, "{\"a\":\"\x01\"}", `{"a":"𐀀"}`, `{"a":"\x"}`,
		"\xef\xbb\xbf{}", `{"a":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"a":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want pushOracle
		accept := json.Unmarshal(body, &want) == nil
		for _, p := range want.Points {
			accept = accept && p != nil
		}
		stale := 99
		got := &client.PushRequest{Points: []float64{7, 8}, At: &stale}
		apiErr := serve.DecodeBody(body, got)
		if (apiErr == nil) != accept {
			t.Fatalf("%q: decoder error %v, json.Unmarshal accepts %v", body, apiErr, accept)
		}
		if !accept {
			if apiErr.Code != client.CodeBadJSON {
				t.Fatalf("%q: code %q, want %q", body, apiErr.Code, client.CodeBadJSON)
			}
			return
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("%q: %d points, json.Unmarshal %d", body, len(got.Points), len(want.Points))
		}
		for i, p := range want.Points {
			if math.Float64bits(got.Points[i]) != math.Float64bits(*p) {
				t.Fatalf("%q: points[%d] = %v, json.Unmarshal %v", body, i, got.Points[i], *p)
			}
		}
		if (got.At == nil) != (want.At == nil) || got.At != nil && *got.At != *want.At {
			t.Fatalf("%q: at %v, json.Unmarshal %v", body, got.At, want.At)
		}
	})
}

// TestDebugHandler pins that profiles are served by DebugHandler, on a
// listener of its own, and never by the /v1 handler.
func TestDebugHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	serve.DebugHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("DebugHandler /debug/pprof/: %d %.80q", rec.Code, rec.Body.String())
	}
	srv := servetest.New(t, hub.Config{Workers: 1}, servetest.DemoKinds(t))
	status, body := servetest.RawStatus(t, http.MethodGet, srv.HTTP.URL+"/debug/pprof/", "")
	if status != http.StatusNotFound || servetest.EnvelopeCode(t, body) != client.CodeNotFound {
		t.Errorf("/v1 handler /debug/pprof/: %d %s, want 404 %s", status, body, client.CodeNotFound)
	}
}
