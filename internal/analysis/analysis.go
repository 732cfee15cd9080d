// Package analysis is cubevet's engine: a stdlib-only (go/ast + go/parser +
// go/types, no go/packages) static-analysis framework that enforces the
// repository invariants no test observes. The shared machinery (closure
// captures, per-function summaries) lives in the flow subpackage; the
// passes here are thin rule layers over it. Contracts a test or runtime
// check already carries (pooled-buffer retention, send ownership,
// node-state partitioning, checkpoint recovery) are left to those checks.
//
// Five passes ship with it:
//
//   - shiftwidth: shift counts derived from the address-width vocabulary
//     (n, p, q, m, ... parameters and .P/.Q/.M fields) must be guarded
//     below word size before shifting; m = p+q element addresses overflow
//     silently otherwise.
//   - liberrors: library packages must not discard error returns and must
//     not panic with error values (invariant panics with formatted
//     messages are the documented exception).
//   - detbreak: simulation and cost paths must stay deterministic — no
//     time.Now, no unseeded math/rand, no output emitted from map
//     iteration order — including nondeterminism reached transitively
//     through module-internal helpers (the summary index).
//   - sharedwrite: goroutines (go statements, exper.Par worker closures)
//     must not write captured shared state without channel/sync mediation
//     or a goroutine-local index.
//   - ignorereason: every //cubevet:ignore suppression must carry a
//     "-- reason" justification and name only registered passes.
//
// Findings are reported as "file:line: [pass] message". A finding is
// suppressed by a "//cubevet:ignore <pass> -- reason" comment on the same
// line or the line directly above; bare "//cubevet:ignore" suppresses every
// pass for that line. A suppression without a reason still suppresses (so
// legacy trees degrade gracefully) but is itself reported by the
// ignorereason pass, which only a reasoned directive can silence.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"boolcube/internal/analysis/flow"
)

// Severity classifies how a finding gates the build: errors fail cubevet
// (exit 1), warnings are reported but do not affect the exit status.
type Severity string

const (
	SeverityError Severity = "error"
	SeverityWarn  Severity = "warn"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos      token.Position // file:line:col of the violation
	Pass     string         // pass name, e.g. "shiftwidth"
	Severity Severity       // error (gates) or warn (reported only)
	Message  string
}

// String renders the finding in the canonical "file:line: [pass] message"
// form. The file path is reported as stored in Pos.Filename.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pass, f.Message)
}

// Package is one loaded, parsed and (best-effort) type-checked package.
type Package struct {
	Path  string // import path, e.g. "boolcube/internal/bits"
	Dir   string // directory on disk
	Name  string // package name
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker diagnostics. Passes run on the AST
	// regardless; partial type information degrades precision, not
	// soundness of the syntactic fallbacks. The cubevet driver refuses to
	// report on packages that fail to type-check (exit 2) so the
	// degradation never silently weakens the gate.
	TypeErrors []error
}

// Module is the whole analyzed package set plus the cross-package summary
// index the interprocedural passes query. Build one with NewModule over
// every package a run will analyze; packages summarize correctly even when
// only a subset is analyzed (the index just knows less).
type Module struct {
	Pkgs  []*Package
	Index *flow.Index
}

// NewModule builds the module view: every function declaration of every
// package is registered in the summary index, and each pass that publishes
// interprocedural facts contributes them here (suppressed sites publish
// nothing, so a justified //cubevet:ignore stops propagation too).
func NewModule(pkgs []*Package) *Module {
	mod := &Module{Pkgs: pkgs, Index: flow.NewIndex()}
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				mod.Index.AddFunc(fn, pkg.Info, fd.Body)
				collectDetFacts(mod.Index, pkg, sup, fn, fd.Body)
			}
		}
	}
	return mod
}

// Pass is one analysis rule applied to a package within a module.
type Pass struct {
	Name     string
	Doc      string
	Severity Severity
	Run      func(*Module, *Package) []Finding
}

// Passes returns every registered pass in stable order.
func Passes() []Pass {
	return []Pass{
		{Name: "shiftwidth", Doc: "shift counts derived from address widths must be guarded < 64", Severity: SeverityError, Run: runShiftwidth},
		{Name: "liberrors", Doc: "library code must not drop errors or panic on error values", Severity: SeverityError, Run: runLiberrors},
		{Name: "detbreak", Doc: "simulation paths must stay deterministic, including through helpers", Severity: SeverityError, Run: runDetbreak},
		{Name: "sharedwrite", Doc: "goroutines must not write captured state without mediation or a local index", Severity: SeverityError, Run: runSharedwrite},
		{Name: "ignorereason", Doc: "cubevet:ignore suppressions must carry a -- reason and name registered passes", Severity: SeverityError, Run: runIgnorereason},
	}
}

// PassNames returns the names of all registered passes, in order.
func PassNames() []string {
	var names []string
	for _, p := range Passes() {
		names = append(names, p.Name)
	}
	return names
}

// SelectPasses resolves a comma-separated pass list ("" or "all" selects
// everything) into pass values, erroring on unknown names.
func SelectPasses(spec string) ([]Pass, error) {
	all := Passes()
	if spec == "" || spec == "all" {
		return all, nil
	}
	byName := make(map[string]Pass, len(all))
	for _, p := range all {
		byName[p.Name] = p
	}
	var out []Pass
	seen := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown pass %q (have %s)", name, strings.Join(PassNames(), ", "))
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		out = append(out, p)
	}
	return out, nil
}

// Analyze runs the given passes over the package and returns the surviving
// (non-suppressed) findings sorted by position.
func Analyze(mod *Module, pkg *Package, passes []Pass) []Finding {
	sup := collectSuppressions(pkg)
	var out []Finding
	for _, p := range passes {
		for _, f := range p.Run(mod, pkg) {
			if f.Severity == "" {
				f.Severity = p.Severity
			}
			if sup.suppressed(f) {
				continue
			}
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
	return out
}

// AnalyzeOne is Analyze over a single-package module — the shape the golden
// fixture tests use.
func AnalyzeOne(pkg *Package, passes []Pass) []Finding {
	return Analyze(NewModule([]*Package{pkg}), pkg, passes)
}

// ignoreDirective is the comment prefix that suppresses findings.
const ignoreDirective = "cubevet:ignore"

// suppression is the parsed content of one line's worth of directives: the
// pass names it silences ("*" for all) and whether any directive on the
// line carried a "-- reason" justification.
type suppression struct {
	passes   map[string]bool
	reasoned bool
}

// suppressions maps file -> line -> that line's directive set.
type suppressions map[string]map[int]*suppression

func (s suppressions) suppressed(f Finding) bool {
	lines := s[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range []int{f.Pos.Line, f.Pos.Line - 1} {
		sp := lines[ln]
		if sp == nil {
			continue
		}
		// The ignorereason pass audits the directives themselves: only a
		// justified directive may silence it, otherwise a bare ignore would
		// hide its own finding.
		if f.Pass == "ignorereason" && !sp.reasoned {
			continue
		}
		if sp.passes["*"] || sp.passes[f.Pass] {
			return true
		}
	}
	return false
}

// collectSuppressions scans every comment in the package for
// //cubevet:ignore directives. The directive applies to the line it sits on
// (same-line trailing comments) and to the line below (comment-above style);
// suppressed() checks both.
func collectSuppressions(pkg *Package) suppressions {
	sup := suppressions{}
	for _, file := range pkg.Files {
		for _, c := range ignoreComments(file) {
			target, reason := splitDirective(c.Text)
			pos := pkg.Fset.Position(c.Pos())
			lines := sup[pos.Filename]
			if lines == nil {
				lines = map[int]*suppression{}
				sup[pos.Filename] = lines
			}
			sp := lines[pos.Line]
			if sp == nil {
				sp = &suppression{passes: map[string]bool{}}
				lines[pos.Line] = sp
			}
			if reason != "" {
				sp.reasoned = true
			}
			if target == "" {
				sp.passes["*"] = true
				continue
			}
			for _, name := range strings.Split(target, ",") {
				sp.passes[strings.TrimSpace(name)] = true
			}
		}
	}
	return sup
}

// ignoreComments returns every cubevet:ignore directive comment in a file.
func ignoreComments(file *ast.File) []*ast.Comment {
	var out []*ast.Comment
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, ignoreDirective) {
				out = append(out, c)
			}
		}
	}
	return out
}

// splitDirective parses one directive comment into its pass target ("" for
// all passes) and its justification ("" when missing).
func splitDirective(text string) (target, reason string) {
	text = strings.TrimSpace(strings.TrimPrefix(text, "//"))
	rest := strings.TrimSpace(strings.TrimPrefix(text, ignoreDirective))
	if i := strings.Index(rest, "--"); i >= 0 {
		return strings.TrimSpace(rest[:i]), strings.TrimSpace(rest[i+2:])
	}
	return strings.TrimSpace(rest), ""
}
