package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// finding builds a Finding at the given node.
func (p *Package) finding(pass string, at ast.Node, msg string) Finding {
	return Finding{Pos: p.Fset.Position(at.Pos()), Pass: pass, Message: msg}
}

// objOf resolves an identifier to its object, via either a use or a
// definition.
func (p *Package) objOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// calleeObj resolves the called function object of a call expression, if
// type information has it.
func (p *Package) calleeObj(call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.objOf(fn)
	case *ast.SelectorExpr:
		return p.objOf(fn.Sel)
	}
	return nil
}

// isPkgFunc reports whether the call is to the package-level function
// pkgPath.name (e.g. "time".Now).
func (p *Package) isPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	obj := p.calleeObj(call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// calleeName returns the bare name of the called function ("Run" for
// e.Run(...), "Simulate" for boolcube.Simulate(...)), or "".
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// isConversion reports whether the call expression is a type conversion
// like uint(x). Without type info it falls back to recognizing the builtin
// numeric type names.
func (p *Package) isConversion(call *ast.CallExpr) bool {
	if tv, ok := p.Info.Types[call.Fun]; ok {
		return tv.IsType()
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "uint", "uint8", "uint16", "uint32", "uint64",
			"int", "int8", "int16", "int32", "int64", "uintptr":
			return true
		}
	}
	return false
}

// mentionsName reports whether expr contains an identifier or field
// selector with one of the given names.
func mentionsName(expr ast.Node, names map[string]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if names[x.Name] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// hasIntLiteral reports whether expr contains an integer literal.
func hasIntLiteral(expr ast.Node) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.INT {
			found = true
			return false
		}
		return true
	})
	return found
}

// terminatesEarly reports whether the statement list contains a return,
// panic, or os.Exit-style call — the shape of a guard body.
func terminatesEarly(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			return true
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				switch calleeName(call) {
				case "panic", "Exit", "Fatal", "Fatalf", "Fatalln":
					return true
				}
			}
		case *ast.IfStmt:
			if terminatesEarly(st.Body.List) {
				return true
			}
		case *ast.BlockStmt:
			if terminatesEarly(st.List) {
				return true
			}
		}
	}
	return false
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is (or implements) error.
func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorType)
}
