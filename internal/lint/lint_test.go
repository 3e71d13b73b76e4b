package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE matches `// want "substring"` expectations; a line may carry
// several.
var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

// TestAnalyzerFixtures runs each analyzer over its testdata fixture and
// compares the diagnostics against the fixture's `// want "…"` line
// comments: every finding must be expected, every expectation must be
// found, and suppressed lines must stay silent. Package paths are
// chosen so the path-scoped analyzers (ctxselect, keyalloc) see their
// scope.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		dir      string
		pkgPath  string
	}{
		{IterClose, "iterclose", "fixture/iterclose"},
		{ErrPropagate, "errpropagate", "fixture/errpropagate"},
		{RowRetain, "rowretain", "fixture/rowretain"},
		{CtxSelect, "ctxselect", "fixture/internal/engine/parallel"},
		{KeyAlloc, "keyalloc", "fixture/internal/engine"},
	}
	ld := NewLoader()
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			files, err := filepath.Glob(filepath.Join("testdata", "src", tc.dir, "*.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("no fixture files for %s: %v", tc.dir, err)
			}
			pkg, err := ld.CheckFiles(tc.pkgPath, files)
			if err != nil {
				t.Fatal(err)
			}
			wants := collectWants(t, files)
			got := RunAnalyzers([]*Package{pkg}, []*Analyzer{tc.analyzer})

			matched := make(map[string]bool)
			for _, d := range got {
				key, ok := matchWant(wants, d)
				if !ok {
					t.Errorf("unexpected diagnostic %v", d)
					continue
				}
				matched[key] = true
			}
			for key, substr := range wants {
				if !matched[key] {
					t.Errorf("missing diagnostic at %s (want message containing %q)", key, substr)
				}
			}
		})
	}
}

// collectWants returns want expectations keyed "file:line#i".
func collectWants(t *testing.T, files []string) map[string]string {
	t.Helper()
	wants := make(map[string]string)
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for j, m := range wantRE.FindAllStringSubmatch(line, -1) {
				wants[fmt.Sprintf("%s:%d#%d", name, i+1, j)] = m[1]
			}
		}
	}
	return wants
}

// matchWant finds an unclaimed expectation on the diagnostic's line
// whose substring occurs in its message.
func matchWant(wants map[string]string, d Diagnostic) (string, bool) {
	for j := 0; ; j++ {
		key := fmt.Sprintf("%s:%d#%d", d.Pos.Filename, d.Pos.Line, j)
		substr, ok := wants[key]
		if !ok {
			return "", false
		}
		if strings.Contains(d.Message, substr) {
			return key, true
		}
	}
}

// TestBareDirectivesReported pins that a suppression comment without a
// justification does not suppress and is itself a finding.
func TestBareDirectivesReported(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "src", "baredirective", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files: %v", err)
	}
	pkg, err := NewLoader().CheckFiles("fixture/baredirective", files)
	if err != nil {
		t.Fatal(err)
	}
	got := RunAnalyzers([]*Package{pkg}, Analyzers())
	if len(got) != 2 {
		t.Fatalf("want 2 malformed-directive findings, got %d: %v", len(got), got)
	}
	for _, d := range got {
		if d.Analyzer != "lint" || !strings.Contains(d.Message, "justification") {
			t.Errorf("unexpected diagnostic %v", d)
		}
	}
}
