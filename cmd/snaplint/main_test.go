package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRealTreeClean pins the acceptance bar: the full analyzer suite
// over the real repository reports nothing — every historical finding
// is fixed or carries a justified suppression.
func TestRealTreeClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// snapk/... resolves the whole module regardless of the test's
	// working directory.
	if code := run([]string{"snapk/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("snaplint exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("unexpected findings:\n%s", stdout.String())
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("snaplint -list exit %d: %s", code, stderr.String())
	}
	for _, name := range []string{"iterclose", "rowretain", "ctxselect", "keyalloc"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, stdout.String())
		}
	}
}
