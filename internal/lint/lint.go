// Package lint implements snaplint, the repo-specific static-analysis
// suite that mechanically enforces the streaming engine's iterator
// conventions — invariants the compiler cannot see but whose violation
// has caused real bugs (row aliasing, goroutine leaks, unchecked stream
// errors; see the "Invariants & linting" section of the README).
//
// Each check is an independent Analyzer over one type-checked package,
// mirroring the x/tools/go/analysis shape (Name/Doc/Run over a Pass) so
// a later migration to that framework is mechanical. Findings are
// suppressed with
//
//	//lint:ignore <analyzer> <justification>
//
// on the flagged line or the line immediately above it, or — for the
// ctxselect goroutine-leak check only — with
//
//	//lint:leakcheck <justification>
//
// on or above the `go` statement. The justification is mandatory: a
// bare directive does not suppress anything and is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full snaplint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{IterClose, ErrPropagate, RowRetain, CtxSelect, KeyAlloc}
}

// Pass carries one analyzer's view of one package and collects its
// diagnostics.
type Pass struct {
	Fset  *token.FileSet
	Pkg   *Package
	name  string
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: where, which analyzer, and what.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// RunAnalyzers runs every analyzer over every package, applies the
// suppression directives, and returns the surviving diagnostics in a
// deterministic file/line order. Malformed directives (no
// justification) are reported as findings of the "lint" pseudo-analyzer
// rather than honored.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			a.Run(&Pass{Fset: pkg.Fset, Pkg: pkg, name: a.Name, diags: &raw})
		}
		dirs := collectDirectives(pkg)
		for _, d := range raw {
			if !dirs.suppresses(d) {
				diags = append(diags, d)
			}
		}
		diags = append(diags, dirs.malformed...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// directive is one parsed //lint: comment.
type directive struct {
	analyzer string // the analyzer it silences ("ctxselect" for leakcheck)
	reason   string
}

// directiveSet indexes well-formed directives by file and line.
type directiveSet struct {
	byLine    map[string]map[int][]directive
	malformed []Diagnostic
}

// collectDirectives parses every //lint:ignore and //lint:leakcheck
// comment in the package. Directives without a justification are
// collected as malformed instead of being indexed.
func collectDirectives(pkg *Package) *directiveSet {
	ds := &directiveSet{byLine: make(map[string]map[int][]directive)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				var d directive
				var bad string
				switch {
				case strings.HasPrefix(text, "lint:ignore"):
					fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
					if len(fields) < 2 {
						bad = "//lint:ignore needs an analyzer name and a justification: //lint:ignore <analyzer> <why this is safe>"
						break
					}
					d = directive{analyzer: fields[0], reason: strings.Join(fields[1:], " ")}
				case strings.HasPrefix(text, "lint:leakcheck"):
					reason := strings.TrimSpace(strings.TrimPrefix(text, "lint:leakcheck"))
					if reason == "" {
						bad = "//lint:leakcheck needs a justification: //lint:leakcheck <why this goroutine cannot leak>"
						break
					}
					d = directive{analyzer: "ctxselect", reason: reason}
				default:
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if bad != "" {
					ds.malformed = append(ds.malformed, Diagnostic{Pos: pos, Analyzer: "lint", Message: bad})
					continue
				}
				lines := ds.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]directive)
					ds.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
			}
		}
	}
	return ds
}

// suppresses reports whether a directive for the diagnostic's analyzer
// sits on the flagged line or the line immediately above it.
func (ds *directiveSet) suppresses(d Diagnostic) bool {
	lines := ds.byLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range lines[line] {
			if dir.analyzer == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// walkStack traverses root in depth-first order, calling fn with each
// node and the stack of its ancestors (outermost first, parent last).
// Returning false skips the node's children.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
