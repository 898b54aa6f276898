package main

import (
	"io"
	"regexp"
	"strings"
	"testing"
)

// TestRunQuick exercises the whole remote walkthrough — in-process /v1
// server, typed client, cursor polling, final reports — at -quick size so
// `go test ./...` covers the example end to end.
func TestRunQuick(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"etsc-serve up at http://127.0.0.1:",
		"registered coop-stock",
		"spec=probthreshold:threshold=0.95,minprefix=12",
		"final coop-stock",
		"final coop-custom",
		"hub totals:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunWritesNothingToStdout guards the refactor: everything goes
// through the writer, so the example stays capturable.
func TestRunWritesNothingToStdout(t *testing.T) {
	if err := run(io.Discard, true); err != nil {
		t.Fatal(err)
	}
}

// TestRunDeterministic pins the example's output: each poll waits until
// the server has applied every pushed point, so two runs print the same
// lines, the loopback port aside.
func TestRunDeterministic(t *testing.T) {
	port := regexp.MustCompile(`127\.0\.0\.1:\d+`)
	var outs [2]string
	for i := range outs {
		var sb strings.Builder
		if err := run(&sb, true); err != nil {
			t.Fatal(err)
		}
		outs[i] = port.ReplaceAllString(sb.String(), "127.0.0.1:PORT")
	}
	if outs[0] != outs[1] {
		t.Errorf("two runs differ:\n--- first\n%s\n--- second\n%s", outs[0], outs[1])
	}
}
