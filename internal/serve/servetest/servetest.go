// Package servetest is the shared scaffolding for internal/serve's test
// batteries: hub + server + typed-client construction over the demo kinds,
// the slow-classifier kind backpressure tests saturate deterministically,
// and the raw-HTTP/error-envelope assertion helpers. The e2e, error, watch,
// metrics, and soak batteries all build on it instead of each carrying its
// own copy.
//
// It lives outside the serve package (tests import it from `package
// serve_test`) so the helpers can construct real serve.Server values
// without an import cycle.
package servetest

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"etsc/internal/client"
	"etsc/internal/etsc"
	"etsc/internal/hub"
	"etsc/internal/serve"
)

// TestServer bundles one server stack: the hub, the serve.Server handler,
// the live HTTP listener, and the typed client pointed at it. The listener
// is closed by t.Cleanup; the hub is the test's to Close (reports are part
// of most batteries' assertions).
type TestServer struct {
	Hub    *hub.Hub
	Srv    *serve.Server
	HTTP   *httptest.Server
	Client *client.Client
}

// Flush waits until the underlying hub is quiescent.
func (ts *TestServer) Flush() { ts.Hub.Flush() }

// CloseHub closes the underlying hub, failing the test on error.
func (ts *TestServer) CloseHub(t testing.TB) {
	t.Helper()
	if _, err := ts.Hub.Close(); err != nil {
		t.Fatal(err)
	}
}

// New builds a hub + server over kinds and returns the stack with a
// typed client attached.
func New(t testing.TB, cfg hub.Config, kinds []hub.Kind) *TestServer {
	t.Helper()
	h, err := hub.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(h, kinds)
	if err != nil {
		t.Fatal(err)
	}
	ts := &TestServer{Hub: h, Srv: srv, HTTP: httptest.NewServer(srv)}
	t.Cleanup(ts.HTTP.Close)
	c, err := client.New(ts.HTTP.URL)
	if err != nil {
		t.Fatal(err)
	}
	ts.Client = c
	return ts
}

// demoKindsOnce trains the seed-3 demo kinds once per test binary: kinds
// are read-only after construction (Attach copies the StreamConfig), so
// every test can share them.
var demoKindsOnce = sync.OnceValues(func() ([]hub.Kind, error) { return hub.DemoKinds(3) })

// DemoKinds returns the shared demo kinds.
func DemoKinds(t testing.TB) []hub.Kind {
	t.Helper()
	kinds, err := demoKindsOnce()
	if err != nil {
		t.Fatal(err)
	}
	return kinds
}

// slowClassifier is an EarlyClassifier whose every decision sleeps,
// keeping the drain worker busy so queue-full backpressure is
// deterministic in the 429/shed tests.
type slowClassifier struct{ delay time.Duration }

func (s slowClassifier) Name() string    { return "slow" }
func (s slowClassifier) FullLength() int { return 64 }
func (s slowClassifier) ClassifyPrefix(prefix []float64) etsc.Decision {
	time.Sleep(s.delay)
	return etsc.Decision{}
}
func (s slowClassifier) ForcedLabel(series []float64) int { return 0 }

// SlowKind serves the slow pipeline for backpressure tests.
func SlowKind() hub.Kind {
	return hub.Kind{
		Name:   "slow",
		Spec:   etsc.Spec{Algo: "slow"},
		Config: hub.StreamConfig{Classifier: slowClassifier{delay: 30 * time.Millisecond}, Stride: 16, Step: 16},
	}
}

// APIErrOf asserts err is a typed *client.APIError with the wanted status
// and code.
func APIErrOf(t testing.TB, err error, status int, code client.ErrorCode) {
	t.Helper()
	if err == nil {
		t.Fatalf("want %d/%s error, got nil", status, code)
	}
	ae, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("want *client.APIError, got %T: %v", err, err)
	}
	if ae.Status != status || ae.Code != code {
		t.Fatalf("want %d/%s, got %d/%s (%s)", status, code, ae.Status, ae.Code, ae.Message)
	}
	if ae.Message == "" {
		t.Error("empty error message")
	}
}

// RawStatus performs an untyped request and returns status + body.
func RawStatus(t testing.TB, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// EnvelopeCode decodes the structured error code from a raw /v1 body.
func EnvelopeCode(t testing.TB, body string) client.ErrorCode {
	t.Helper()
	var env client.ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error body %q is not the JSON envelope: %v", body, err)
	}
	return env.Error.Code
}
