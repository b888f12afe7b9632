// Package lintkit is the driver vocabulary for hydralint, the engine's
// machine-checked invariant suite (DESIGN.md §12). It deliberately mirrors
// the golang.org/x/tools/go/analysis API surface — Analyzer, Pass,
// Diagnostic, a Reportf helper — so that the analyzers read like ordinary
// go/analysis analyzers and could be ported onto x/tools mechanically. It
// is implemented on the standard library alone (go/ast, go/types, the gc
// export-data importer) because the build environment vendors no
// third-party modules.
//
// Two drivers share this vocabulary:
//
//   - cmd/hydralint invoked by `go vet -vettool=` speaks the go command's
//     unitchecker protocol (unit.go): -V=full / -flags / one *.cfg file per
//     compilation unit, with types resolved from compiler export data;
//   - the analysistest-style harness (internal/analysis/linttest) runs one
//     analyzer over a testdata package and matches `// want` comments.
//
// Suppression: a comment of the form
//
//	//hydralint:ignore <analyzer>[,<analyzer>...] <reason>
//
// suppresses diagnostics from the named analyzers on the comment's line and
// on the line directly below it (so the directive can trail the offending
// line or stand alone above it). The reason is mandatory: a bare directive
// is itself reported, as is a directive naming no known analyzer — silent
// or unexplained suppressions are exactly what the suite exists to prevent.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker: a name (the identifier used
// in diagnostics, enable flags, and ignore directives), one-paragraph
// documentation, and the Run function applied to each package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one reported violation, positioned in the package's
// FileSet and tagged with the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Package is one type-checked compilation unit, however it was loaded
// (a vet .cfg or a linttest testdata directory).
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// A Pass carries one analyzer's view of one package; it is the sole
// argument to Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Most hydralint
// analyzers check production invariants only and skip test files; the ones
// that apply everywhere (sentinelerr) simply never call this.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// RunPackage applies every analyzer to pkg, filters the results through the
// package's //hydralint:ignore directives, and returns the surviving
// diagnostics in file-position order. An analyzer returning an error aborts
// the run — analyzer bugs must fail the build loudly, not drop findings.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	diags = applyIgnores(pkg, known, diags)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// ignoreDirective is one parsed //hydralint:ignore comment.
type ignoreDirective struct {
	analyzers []string
	line      int // the comment's own line; it also covers line+1
}

const ignorePrefix = "//hydralint:ignore"

// applyIgnores drops suppressed diagnostics and appends diagnostics for
// malformed directives, returning the surviving set. Suppression is
// per-file, per-line, per-analyzer.
func applyIgnores(pkg *Package, known map[string]bool, diags []Diagnostic) []Diagnostic {
	type fileKey struct {
		file string
		line int
		name string
	}
	suppress := make(map[fileKey]bool)
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		fname := pkg.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "hydralint",
						Message:  "hydralint:ignore needs an analyzer name and a reason: //hydralint:ignore <analyzer> <why this violation is deliberate>",
					})
					continue
				}
				names := strings.Split(fields[0], ",")
				for _, n := range names {
					if !known[n] {
						malformed = append(malformed, Diagnostic{
							Pos:      c.Pos(),
							Analyzer: "hydralint",
							Message:  fmt.Sprintf("hydralint:ignore names unknown analyzer %q", n),
						})
					}
				}
				line := pkg.Fset.Position(c.Pos()).Line
				for _, n := range names {
					suppress[fileKey{fname, line, n}] = true
					suppress[fileKey{fname, line + 1, n}] = true
				}
			}
		}
	}
	if len(suppress) == 0 {
		return append(diags, malformed...)
	}
	kept := diags[:0]
	for _, d := range diags {
		posn := pkg.Fset.Position(d.Pos)
		if suppress[fileKey{posn.Filename, posn.Line, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	// Zero the tail so dropped diagnostics are not resurrected by append.
	clear(diags[len(kept):])
	return append(kept, malformed...)
}

// Unparen strips any number of enclosing parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// CalleeFunc resolves a call expression to the statically named function or
// method it invokes, or nil for calls through function values, conversions,
// and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// HasMarker reports whether doc contains the comment directive //<marker>
// (exact line, optionally followed by explanatory text after a space).
func HasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	want := "//" + marker
	for _, c := range doc.List {
		if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
			return true
		}
	}
	return false
}

// IsEmptyInterface reports whether t is interface{} / any.
func IsEmptyInterface(t types.Type) bool {
	i, ok := t.Underlying().(*types.Interface)
	return ok && i.Empty()
}
