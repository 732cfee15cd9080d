package flow

import (
	"go/ast"
	"go/types"
	"sort"
)

// Capture is one object a function literal references but does not declare:
// state shared with the enclosing function (or the package). Reads and
// Writes record the referencing sites inside the literal, in source order.
type Capture struct {
	Obj    types.Object
	Reads  []*ast.Ident // identifier uses outside write targets
	Writes []ast.Node   // assignment / inc-dec statements whose target root is Obj
}

// Captures returns the variables lit captures from its environment, sorted
// by first reference position. Only *types.Var objects count — captured
// functions, constants and types cannot race.
func Captures(info *types.Info, lit *ast.FuncLit) []Capture {
	scope := NodeSpan(lit)
	byObj := map[types.Object]*Capture{}
	get := func(o types.Object) *Capture {
		c := byObj[o]
		if c == nil {
			c = &Capture{Obj: o}
			byObj[o] = c
		}
		return c
	}
	captured := func(o types.Object) bool {
		if o == nil || scope.Contains(o.Pos()) {
			return false
		}
		_, isVar := o.(*types.Var)
		return isVar
	}

	// Write targets first, so the read walk can skip them.
	writeTargets := map[*ast.Ident]bool{}
	recordWrite := func(at ast.Node, target ast.Expr) {
		root := BaseIdent(target)
		if root == nil || root.Name == "_" {
			return
		}
		writeTargets[root] = true
		if o := ObjOf(info, root); captured(o) {
			get(o).Writes = append(get(o).Writes, at)
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				recordWrite(st, lhs)
			}
		case *ast.IncDecStmt:
			recordWrite(st, st.X)
		}
		return true
	})
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || writeTargets[id] {
			return true
		}
		if o := ObjOf(info, id); captured(o) {
			get(o).Reads = append(get(o).Reads, id)
		}
		return true
	})

	out := make([]Capture, 0, len(byObj))
	for _, c := range byObj {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return firstRef(out[i]) < firstRef(out[j]) })
	return out
}

// firstRef is a capture's earliest referencing position.
func firstRef(c Capture) (p int) {
	p = int(^uint(0) >> 1)
	for _, id := range c.Reads {
		if int(id.Pos()) < p {
			p = int(id.Pos())
		}
	}
	for _, w := range c.Writes {
		if int(w.Pos()) < p {
			p = int(w.Pos())
		}
	}
	return p
}
