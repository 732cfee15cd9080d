package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// load type-checks one import-free source snippet.
func load(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Error: func(error) {}}
	if _, err := conf.Check("x", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("type check: %v", err)
	}
	return fset, f, info
}

// fn returns the named function declaration.
func fn(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

const captureSrc = `package x
func g() {
	shared := 0
	out := make([]int, 4)
	read := 7
	f := func(i int) {
		shared += read
		out[i] = i
		local := i
		_ = local
	}
	f(0)
}`

func TestCaptures(t *testing.T) {
	_, f, info := load(t, captureSrc)
	decl := fn(t, f, "g")
	var lit *ast.FuncLit
	ast.Inspect(decl, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok {
			lit = l
		}
		return true
	})
	caps := Captures(info, lit)
	got := map[string]Capture{}
	for _, c := range caps {
		got[c.Obj.Name()] = c
	}
	if c, ok := got["shared"]; !ok || len(c.Writes) != 1 {
		t.Errorf("shared: want 1 write, got %+v", c)
	}
	if c, ok := got["out"]; !ok || len(c.Writes) != 1 {
		t.Errorf("out: want 1 write, got %+v", c)
	}
	if c, ok := got["read"]; !ok || len(c.Reads) != 1 || len(c.Writes) != 0 {
		t.Errorf("read: want read-only capture, got %+v", c)
	}
	if _, ok := got["local"]; ok {
		t.Error("local must not be reported as captured")
	}
	if _, ok := got["i"]; ok {
		t.Error("parameter i must not be reported as captured")
	}
}

const summarySrc = `package x
func leaf() int { return 1 }
func mid() int  { return leaf() }
func top() int  { return mid() }
func other() int { return 0 }`

func TestSummaryReaches(t *testing.T) {
	_, f, info := load(t, summarySrc)
	ix := NewIndex()
	var fns = map[string]*types.Func{}
	for _, name := range []string{"leaf", "mid", "top", "other"} {
		d := fn(t, f, name)
		obj := info.Defs[d.Name].(*types.Func)
		fns[name] = obj
		ix.AddFunc(obj, info, d.Body)
	}
	ix.AddFact(fns["leaf"], Fact{Prop: "det", Detail: "time.Now"})

	tr := ix.Reaches(fns["top"], "det")
	if tr == nil {
		t.Fatal("top should reach det through mid -> leaf")
	}
	if len(tr.Calls) != 2 || tr.Calls[0].Callee != fns["mid"] || tr.Calls[1].Callee != fns["leaf"] {
		t.Errorf("trace chain wrong: %+v", tr.Calls)
	}
	if tr.Fact.Detail != "time.Now" {
		t.Errorf("fact detail = %q", tr.Fact.Detail)
	}
	if ix.Reaches(fns["other"], "det") != nil {
		t.Error("other must not reach det")
	}
	if direct := ix.Reaches(fns["leaf"], "det"); direct == nil || len(direct.Calls) != 0 {
		t.Error("leaf reaches det directly with an empty chain")
	}
}
