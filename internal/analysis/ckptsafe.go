package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// runCkptsafe guards the recovery invariants around checkpointed execution
// (see internal/core/checkpoint.go). Two rules:
//
// Executor rule — in a function returning (*Result, error), every error
// return positioned after an engine run (a Run/RunRecover/RunFlows call, or
// core.RunTransfers, the kernel through which the flow executors reach the
// engine) has already moved real simulated traffic, so surfacing a bare error there throws that
// work away. Such returns must either propagate a single (*Result, error)
// call, return an error variable produced by one, or wrap the failure in
// &ExecError{Checkpoint: ...} whose Checkpoint folds the engine Stats: a
// composite Checkpoint literal must set Stats and At, and an identifier
// checkpoint must have had its .Stats assigned beforehand. Handing the
// checkpoint to a (*Result, error) consumer named Recover or Resume counts
// as that fold — those consumers merge the engine Stats into the
// checkpoint themselves, so a recovery path that re-returns the same
// checkpoint afterwards is not a finding.
//
// Engine rule — in an *Engine method returning error, a failure built by a
// ...Error constructor (deadlockError, deadlineError, ...) must not be
// returned without an intervening drainAll(): the per-node coroutines are
// still parked in their yield and would leak past the run.
//
// Both rules are positional over the declaration body and do not descend
// into function literals (a node program's returns are not the executor's).
func runCkptsafe(mod *Module, p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if p.isExecutorSig(fd) {
				out = append(out, p.checkExecutorReturns(fd)...)
			}
			if p.isEngineMethod(fd) {
				out = append(out, p.checkEngineDrain(fd)...)
			}
		}
	}
	return out
}

// isExecutorSig reports a (*Result, error) function signature.
func (p *Package) isExecutorSig(fd *ast.FuncDecl) bool {
	res := fd.Type.Results
	if res == nil || len(res.List) != 2 || len(res.List[0].Names) > 0 {
		return false
	}
	first, ok := p.Info.Types[res.List[0].Type]
	if !ok || first.Type == nil {
		return false
	}
	ptr, ok := first.Type.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Result" {
		return false
	}
	second, ok := p.Info.Types[res.List[1].Type]
	return ok && second.Type != nil && isErrorType(second.Type)
}

// isEngineMethod reports a method on *Engine whose results include error.
func (p *Package) isEngineMethod(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Type.Results == nil {
		return false
	}
	tv, ok := p.Info.Types[fd.Recv.List[0].Type]
	if !ok || tv.Type == nil {
		return false
	}
	ptr, ok := tv.Type.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Engine" {
		return false
	}
	for _, r := range fd.Type.Results.List {
		if tv, ok := p.Info.Types[r.Type]; ok && tv.Type != nil && isErrorType(tv.Type) {
			return true
		}
	}
	return false
}

// walkOutsideLits visits body without descending into function literals.
func walkOutsideLits(body ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

// checkExecutorReturns applies the executor rule to one declaration.
func (p *Package) checkExecutorReturns(fd *ast.FuncDecl) []Finding {
	// Run points: engine/router runs in this body (not inside the node
	// programs they take as arguments).
	firstRun := token.NoPos
	walkOutsideLits(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch calleeName(call) {
		case "Run", "RunRecover", "RunFlows", "RunTransfers":
			if !firstRun.IsValid() || call.Pos() < firstRun {
				firstRun = call.Pos()
			}
		}
		return true
	})
	if !firstRun.IsValid() {
		return nil
	}

	// statsFolds: positions of `<id>.Stats = ...` assignments, per object —
	// plus checkpoints handed to a Recover/Resume call, which folds the
	// engine Stats into its argument itself (core.Recover is a valid
	// checkpoint consumer; re-returning the same checkpoint after it is
	// safe).
	// blessed: error-typed identifiers assigned from a (*Result, error)
	// call — they carry a failure a checkpointing helper already wrapped.
	statsFolds := map[types.Object][]token.Pos{}
	blessed := map[types.Object][]token.Pos{}
	walkOutsideLits(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && p.isCkptConsumerCall(call) {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if o := p.objOf(id); o != nil {
					statsFolds[o] = append(statsFolds[o], call.Pos())
				}
			}
			return true
		}
		st, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range st.Lhs {
			if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "Stats" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if o := p.objOf(id); o != nil {
						statsFolds[o] = append(statsFolds[o], st.Pos())
					}
				}
			}
		}
		if len(st.Rhs) == 1 {
			if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok && p.isExecutorCall(call) {
				for _, lhs := range st.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if o := p.objOf(id); o != nil && isErrorType(o.Type()) {
							blessed[o] = append(blessed[o], st.Pos())
						}
					}
				}
			}
		}
		return true
	})
	before := func(positions []token.Pos, pos token.Pos) bool {
		for _, p := range positions {
			if p < pos {
				return true
			}
		}
		return false
	}

	// statsFolded reports whether the object had its .Stats assigned before
	// pos — the ident-checkpoint form's fold requirement.
	statsFolded := func(o types.Object, pos token.Pos) bool {
		return before(statsFolds[o], pos)
	}

	var out []Finding
	walkOutsideLits(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() < firstRun {
			return true
		}
		if len(ret.Results) == 1 {
			return true // single-call (*Result, error) propagation
		}
		if len(ret.Results) != 2 {
			return true
		}
		errExpr := ast.Unparen(ret.Results[1])
		switch e := errExpr.(type) {
		case *ast.Ident:
			if e.Name == "nil" {
				return true
			}
			if o := p.objOf(e); o != nil && before(blessed[o], ret.Pos()) {
				return true
			}
			out = append(out, p.finding("ckptsafe", ret, fmt.Sprintf(
				"post-run failure returns bare %q; work already simulated is lost — wrap it in &ExecError{Checkpoint: ...} folding the engine Stats so callers can Resume", e.Name)))
		case *ast.UnaryExpr:
			lit, ok := e.X.(*ast.CompositeLit)
			if !ok || e.Op != token.AND || typeName(lit.Type) != "ExecError" {
				out = append(out, p.finding("ckptsafe", ret,
					"post-run failure returns a non-checkpointing error; wrap it in &ExecError{Checkpoint: ...} folding the engine Stats so callers can Resume"))
				return true
			}
			out = append(out, p.checkExecErrorLit(ret, lit, statsFolded)...)
		default:
			out = append(out, p.finding("ckptsafe", ret,
				"post-run failure returns a non-checkpointing error; wrap it in &ExecError{Checkpoint: ...} folding the engine Stats so callers can Resume"))
		}
		return true
	})
	return out
}

// checkExecErrorLit validates one &ExecError{...} return literal.
// statsFolded answers whether an identifier checkpoint had its Stats
// assigned before the return.
func (p *Package) checkExecErrorLit(ret *ast.ReturnStmt, lit *ast.CompositeLit, statsFolded func(types.Object, token.Pos) bool) []Finding {
	var ckpt ast.Expr
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Checkpoint" {
			ckpt = ast.Unparen(kv.Value)
		}
	}
	if ckpt == nil {
		return []Finding{p.finding("ckptsafe", ret,
			"ExecError returned without a Checkpoint; callers cannot Resume — capture Plan/Src/Delivered and fold the engine Stats")}
	}
	switch c := ckpt.(type) {
	case *ast.UnaryExpr:
		cl, ok := c.X.(*ast.CompositeLit)
		if !ok || typeName(cl.Type) != "Checkpoint" {
			return nil // built by an expression we cannot see through
		}
		keys := map[string]bool{}
		for _, el := range cl.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					keys[id.Name] = true
				}
			}
		}
		if !keys["Stats"] || !keys["At"] {
			return []Finding{p.finding("ckptsafe", ret,
				"checkpoint constructed without folding the engine Stats (set Stats and At); a Resume would mis-account the delivered work")}
		}
	case *ast.Ident:
		if o := p.objOf(c); o != nil && !statsFolded(o, ret.Pos()) {
			return []Finding{p.finding("ckptsafe", ret, fmt.Sprintf(
				"checkpoint %q returned without folding Stats into it; assign %s.Stats (Stats.Merge) before returning", c.Name, c.Name))}
		}
	}
	return nil
}

// typeName extracts the bare name of a composite-literal type expression.
func typeName(e ast.Expr) string {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return t.Sel.Name
	}
	return ""
}

// isCkptConsumerCall reports a Recover/Resume call taking a checkpoint
// first: a (*Result, error) consumer contracted to fold the engine Stats
// into its checkpoint argument before any failure return.
func (p *Package) isCkptConsumerCall(call *ast.CallExpr) bool {
	switch calleeName(call) {
	case "Recover", "Resume":
	default:
		return false
	}
	return len(call.Args) > 0 && p.isExecutorCall(call)
}

// isExecutorCall reports a call whose static type is (*Result, error).
func (p *Package) isExecutorCall(call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	tuple, ok := tv.Type.(*types.Tuple)
	if !ok || tuple.Len() != 2 || !isErrorType(tuple.At(1).Type()) {
		return false
	}
	ptr, ok := tuple.At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Result"
}

// checkEngineDrain applies the engine rule to one *Engine method.
func (p *Package) checkEngineDrain(fd *ast.FuncDecl) []Finding {
	var drains []token.Pos
	errAssign := map[types.Object][]struct {
		pos  token.Pos
		name string
	}{}
	walkOutsideLits(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			if calleeName(st) == "drainAll" {
				drains = append(drains, st.Pos())
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if !strings.HasSuffix(name, "Error") {
				return true
			}
			for _, lhs := range st.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if o := p.objOf(id); o != nil {
						errAssign[o] = append(errAssign[o], struct {
							pos  token.Pos
							name string
						}{st.Pos(), name})
					}
				}
			}
		}
		return true
	})

	var out []Finding
	walkOutsideLits(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		switch e := ast.Unparen(ret.Results[0]).(type) {
		case *ast.CallExpr:
			if name := calleeName(e); strings.HasSuffix(name, "Error") {
				out = append(out, p.finding("ckptsafe", ret, fmt.Sprintf(
					"engine failure %s() returned directly; call drainAll() first or the node goroutines leak past the run", name)))
			}
		case *ast.Ident:
			o := p.objOf(e)
			if o == nil {
				return true
			}
			// Latest ...Error constructor assignment before this return.
			var last struct {
				pos  token.Pos
				name string
			}
			for _, a := range errAssign[o] {
				if a.pos < ret.Pos() && a.pos > last.pos {
					last = a
				}
			}
			if !last.pos.IsValid() {
				return true
			}
			drained := false
			for _, d := range drains {
				if d > last.pos && d < ret.Pos() {
					drained = true
					break
				}
			}
			if !drained {
				out = append(out, p.finding("ckptsafe", ret, fmt.Sprintf(
					"engine failure from %s() returned without an intervening drainAll(); the node goroutines leak past the run", last.name)))
			}
		}
		return true
	})
	return out
}
