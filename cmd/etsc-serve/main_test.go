package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"etsc/internal/hub"
	"etsc/internal/router"
	"etsc/internal/serve"
)

// TestLoadgenSmoke runs the generator at a tiny size and checks it
// completes and reports.
func TestLoadgenSmoke(t *testing.T) {
	kinds, err := hub.DemoKinds(3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hub.New(hub.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tmp, err := os.Create(filepath.Join(t.TempDir(), "loadgen.out"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := loadgen(tmp, h, kinds, 3, 3, 3000, 64, 0); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"points/sec aggregate", "push latency", "kind chicken"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("loadgen report missing %q:\n%s", want, out)
		}
	}
}

// TestLoadgenRemoteSmoke drives the same tiny workload through the typed
// /v1 client against an in-process server — the -target path end to end.
func TestLoadgenRemoteSmoke(t *testing.T) {
	kinds, err := hub.DemoKinds(3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hub.New(hub.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := serve.New(h, kinds)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	tmp, err := os.Create(filepath.Join(t.TempDir(), "loadgen-remote.out"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := loadgenRemote(tmp, srv.URL, kinds, 3, 3, 3000, 64, 0); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"remote load generator", "points/sec aggregate", "push latency", "kind chicken"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("remote loadgen report missing %q:\n%s", want, out)
		}
	}
	// A single node never echoes an owner backend, so no breakdown.
	if strings.Contains(string(out), "\nbackend ") {
		t.Errorf("single-node loadgen report has a per-backend breakdown:\n%s", out)
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadgenRemoteRouterBreakdown points -target at a two-backend
// etsc-router: every push response carries the owner's X-Etsc-Backend
// echo, and the report must split latency per backend.
func TestLoadgenRemoteRouterBreakdown(t *testing.T) {
	kinds, err := hub.DemoKinds(3)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]router.BackendSpec, 2)
	for i := range specs {
		h, err := hub.New(hub.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		handler, err := serve.New(h, kinds)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(handler)
		defer srv.Close()
		specs[i] = router.BackendSpec{Name: "node-" + strconv.Itoa(i), URL: srv.URL}
	}
	rt, err := router.New(router.Config{Backends: specs})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	front := httptest.NewServer(rt)
	defer front.Close()

	tmp, err := os.Create(filepath.Join(t.TempDir(), "loadgen-router.out"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := loadgenRemote(tmp, front.URL, kinds, 3, 4, 3000, 64, 0); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	// 4 streams over 2 backends: both must show up with their own
	// percentiles (FNV placement of the demo ids covers both for seed 3).
	seen := 0
	for _, name := range []string{"node-0", "node-1"} {
		if strings.Contains(string(out), "backend "+name) {
			seen++
		}
	}
	if seen == 0 {
		t.Errorf("router loadgen report has no per-backend breakdown:\n%s", out)
	}
	if !strings.Contains(string(out), "pushes, p50=") {
		t.Errorf("per-backend breakdown missing latency percentiles:\n%s", out)
	}
}

// TestSoakQuickSmoke runs the -soak -quick battery in process: chaos
// watchers and bursty pushers against a live shed-policy server, ending in
// an explicit PASS line with per-stream shed counters and a linted /metrics
// body.
func TestSoakQuickSmoke(t *testing.T) {
	kinds, err := hub.DemoKinds(3)
	if err != nil {
		t.Fatal(err)
	}
	tmp, err := os.Create(filepath.Join(t.TempDir(), "soak.out"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := soakRun(tmp, kinds, 3, true); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"soak: metrics lint ok",
		"soak: stream abuse-0",
		"watch transcripts matched the final report on 4/4 healthy streams",
		"soak: PASS — zero ingest rejections on healthy streams",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("soak report missing %q:\n%s", want, out)
		}
	}
}

// TestPercentileEmpty pins the empty-sample guard: no panic, zero value.
func TestPercentileEmpty(t *testing.T) {
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}
