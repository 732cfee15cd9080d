// Package flow is the dataflow core under cubevet's analysis passes: a
// stdlib-only toolkit over go/ast + go/types that the passes share instead
// of each growing its own ad-hoc walker. It provides
//
//   - Span scoping and object resolution helpers (ObjOf, BaseIdent),
//   - closure-capture tracking (Captures): which outside-declared objects a
//     function literal reads and writes, and
//   - per-function summaries (Index): direct facts plus the static
//     module-internal call graph, closed transitively by Reaches so passes
//     can ask intra-module interprocedural questions ("does calling this
//     helper eventually read the wall clock?") and report the call chain.
//
// Everything here is position-based and flow-insensitive within one
// function body.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Span is a half-open source-position interval, usually one function body.
type Span struct{ Lo, Hi token.Pos }

// NodeSpan returns the span covering one AST node.
func NodeSpan(n ast.Node) Span { return Span{n.Pos(), n.End()} }

// Contains reports whether p falls inside the span.
func (s Span) Contains(p token.Pos) bool { return s.Lo <= p && p < s.Hi }

// ObjOf resolves an identifier to its object via either a use or a
// definition.
func ObjOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// BaseIdent strips parens, stars, index, slice and selector wrappers off an
// assignable expression and returns the root identifier, or nil (e.g. for
// function-call results).
func BaseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}
