// Package ctxfield checks the context discipline from PR 6: a
// context.Context travels down the call stack, bound once per execution
// into execCtl — it is never stored in long-lived structs, where it would
// outlive its cancellation scope and pin request-scoped values.
//
// The rule: no struct field of type context.Context, except in the struct
// named execCtl (the engine's one sanctioned binding point). Deliberate
// exceptions need //hydralint:ignore ctxfield <reason>. Test files are
// skipped.
package ctxfield

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/lintkit"
)

var Analyzer = &lintkit.Analyzer{
	Name: "ctxfield",
	Doc:  "no context.Context struct fields outside execCtl",
	Run:  run,
}

const allowedStruct = "execCtl"

// isContextType reports whether t is exactly context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func run(pass *lintkit.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || ts.Name.Name == allowedStruct || pass.InTestFile(ts.Pos()) {
				return true
			}
			for _, field := range st.Fields.List {
				if isContextType(pass.TypesInfo.TypeOf(field.Type)) {
					pass.Reportf(field.Pos(), "context.Context stored in struct %s — contexts flow through call paths into %s, not struct fields", ts.Name.Name, allowedStruct)
				}
			}
			return true
		})
	}
	return nil
}
