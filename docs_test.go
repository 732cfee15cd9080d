package boolcube

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// The design documents name code, and every name they give must exist.
// TestDocsNameLiveCode reads each reference of the form pkg.Name or
// pkg.Type.Member inside an inline code span or a fenced code block, where
// pkg is the name of a package of this module, and requires it to resolve
// to a declaration in the parsed tree: a top-level func, type, var or const,
// and then a method, struct field or interface method of that type.
//
// One rule decides what is Go: only exported names are held. A selector
// that starts lower-case is not an exported Go name — a file name
// (`shard.go`), a bench metric (`core.execute_ms`) or an unexported helper
// the text points into — and the reference is checked only up to the last
// exported name before it.
func TestDocsNameLiveCode(t *testing.T) {
	tree := parseModule(t)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range codeRefs(string(src)) {
			if !tree.resolves(ref.sel) {
				t.Errorf("%s:%d: `%s` names no declaration in this module", doc, ref.line, strings.Join(ref.sel, "."))
			}
		}
	}
}

type docRef struct {
	line int
	sel  []string // package name, then one or two exported names
}

var (
	fenceRE  = regexp.MustCompile("(?ms)^```[^\n]*\n(.*?)^```")
	inlineRE = regexp.MustCompile("`((?:[^`\n]|\n[^`\n])+)`") // a span may wrap, not cross a blank line
	selRE    = regexp.MustCompile(`\b([a-z][a-z0-9]*)((?:\.[A-Za-z_][A-Za-z0-9_]*)+)`)
)

// codeRefs returns every pkg.Name[.Member] selector inside the code of a
// Markdown text — fenced blocks and inline spans — with its line, cut at the
// first selector that is not an exported name.
func codeRefs(md string) []docRef {
	var refs []docRef
	scan := func(code string, at int) {
		for _, m := range selRE.FindAllStringSubmatchIndex(code, -1) {
			sel := []string{code[m[2]:m[3]]}
			for _, name := range strings.Split(code[m[4]:m[5]], ".")[1:] {
				if len(sel) == 3 || !unicode.IsUpper(rune(name[0])) {
					break
				}
				sel = append(sel, name)
			}
			if len(sel) > 1 {
				refs = append(refs, docRef{line: 1 + strings.Count(md[:at+m[0]], "\n"), sel: sel})
			}
		}
	}
	prose, last := 0, 0
	for _, f := range fenceRE.FindAllStringSubmatchIndex(md, -1) {
		for _, s := range inlineRE.FindAllStringSubmatchIndex(md[prose:f[0]], -1) {
			scan(md[prose+s[2]:prose+s[3]], prose+s[2])
		}
		scan(md[f[2]:f[3]], f[2])
		prose, last = f[1], f[1]
	}
	for _, s := range inlineRE.FindAllStringSubmatchIndex(md[last:], -1) {
		scan(md[last+s[2]:last+s[3]], last+s[2])
	}
	return refs
}

// goTree is the module's declarations by package name: several directories
// may share a name, and a reference resolves if any of them declares it.
type goTree struct {
	pkgs  map[string][]*goPkg // package name → packages
	byDir map[string]*goPkg   // import path → package
}

type goPkg struct {
	imports map[string]string // file-level import name → import path, merged
	decls   map[string]ast.Node
	members map[string]map[string]bool // type name → methods and fields
	embeds  map[string][]ast.Expr      // type name → embedded field types
}

func parseModule(t *testing.T) *goTree {
	t.Helper()
	tree := &goTree{pkgs: map[string][]*goPkg{}, byDir: map[string]*goPkg{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		if name == "main" {
			return nil
		}
		dir := "boolcube"
		if d := filepath.Dir(path); d != "." {
			dir += "/" + filepath.ToSlash(d)
		}
		p := tree.byDir[dir]
		if p == nil {
			p = &goPkg{imports: map[string]string{}, decls: map[string]ast.Node{},
				members: map[string]map[string]bool{}, embeds: map[string][]ast.Expr{}}
			tree.byDir[dir] = p
			tree.pkgs[name] = append(tree.pkgs[name], p)
		}
		p.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func (p *goPkg) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
}

func (p *goPkg) add(f *ast.File) {
	for _, im := range f.Imports {
		path := strings.Trim(im.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		p.imports[name] = path
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.decls[d.Name.Name] = d
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch r := recv.(type) {
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				p.member(id.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						p.decls[id.Name] = s
					}
				case *ast.TypeSpec:
					p.decls[s.Name.Name] = s
					p.typeMembers(s.Name.Name, s.Type)
				}
			}
		}
	}
}

func (p *goPkg) typeMembers(typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch x := expr.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		if !isAlias(expr) {
			return
		}
		p.embeds[typ] = append(p.embeds[typ], expr) // an alias: its target's members
		return
	}
	for _, fl := range fields.List {
		if len(fl.Names) == 0 {
			p.embeds[typ] = append(p.embeds[typ], fl.Type)
		}
		for _, id := range fl.Names {
			p.member(typ, id.Name)
		}
	}
}

// isAlias reports a type expression that names another type.
func isAlias(expr ast.Expr) bool {
	switch expr.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return true
	}
	return false
}

// resolves reports whether sel (package name, then one or two names) is
// declared in some package of that name.
func (t *goTree) resolves(sel []string) bool {
	pkgs, ok := t.pkgs[sel[0]]
	if !ok {
		return true // not a package of this module: not a reference to hold
	}
	for _, p := range pkgs {
		if _, ok := p.decls[sel[1]]; ok && (len(sel) == 2 || t.hasMember(p, sel[1], sel[2], 0)) {
			return true
		}
	}
	return false
}

// hasMember looks name up on typ, through embedded fields and type aliases.
func (t *goTree) hasMember(p *goPkg, typ, name string, depth int) bool {
	if p.members[typ][name] {
		return true
	}
	if depth > 4 {
		return false
	}
	for _, e := range p.embeds[typ] {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		switch x := e.(type) {
		case *ast.Ident:
			if t.hasMember(p, x.Name, name, depth+1) {
				return true
			}
		case *ast.SelectorExpr:
			id, ok := x.X.(*ast.Ident)
			if !ok {
				continue
			}
			if q := t.byDir[p.imports[id.Name]]; q != nil && t.hasMember(q, x.Sel.Name, name, depth+1) {
				return true
			}
		}
	}
	return false
}
