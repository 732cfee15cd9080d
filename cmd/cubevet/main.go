// Cubevet is this repository's static analyzer: it enforces the invariants
// the compiler cannot see and no test observes (address-width shift bounds,
// the library error contract, the engine's determinism guarantee, and
// mediated writes from goroutines), plus the hygiene of its own
// suppressions. See internal/analysis for the passes and
// internal/analysis/flow for the shared dataflow core.
//
// Usage:
//
//	cubevet [-passes p1,p2] [-warn p3,p4] [-json] [-list] [packages | ./...]
//
// Packages are directories, or "./..." (the default) for every package in
// the module. Findings print as "file:line: [pass] message" (or as a JSON
// array with -json). The exit status is 1 when there are error-severity
// findings, 2 on usage errors, load errors or type-check failures, and 0
// when clean; -warn demotes the named passes to warnings, which are
// reported but do not gate. Suppress a finding with a
// "//cubevet:ignore <pass> -- reason" comment on the same line or the line
// above it (the reason is mandatory: the ignorereason pass audits bare
// directives, and directives naming a pass that does not exist).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"boolcube/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json wire shape of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Pass     string `json:"pass"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cubevet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	passSpec := fs.String("passes", "all", "comma-separated passes to run: "+strings.Join(analysis.PassNames(), ","))
	warnSpec := fs.String("warn", "", "comma-separated passes demoted to warnings (reported, exit stays 0)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	list := fs.Bool("list", false, "list available passes and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cubevet [-passes p1,p2] [-warn p1,p2] [-json] [-list] [packages | ./...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, p := range analysis.Passes() {
			fmt.Fprintf(stdout, "%-12s %s\n", p.Name, p.Doc)
		}
		return 0
	}
	passes, err := analysis.SelectPasses(*passSpec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *warnSpec != "" {
		warned, err := analysis.SelectPasses(*warnSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		demoted := map[string]bool{}
		for _, p := range warned {
			demoted[p.Name] = true
		}
		for i := range passes {
			if demoted[passes[i].Name] {
				passes[i].Severity = analysis.SeverityWarn
			}
		}
	}

	targets := fs.Args()
	if len(targets) == 0 {
		targets = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var pkgs []*analysis.Package
	for _, t := range targets {
		if t == "./..." || t == "..." {
			all, err := loader.LoadAll()
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			pkgs = append(pkgs, all...)
			continue
		}
		pkg, err := loader.LoadDir(strings.TrimSuffix(t, "/"))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}

	// Type-check failures are a hard stop (exit 2, distinct from findings):
	// passes degrade to syntactic fallbacks without type information, and a
	// silently weakened gate is worse than a loud one.
	typeErrs := 0
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			if typeErrs < 20 {
				fmt.Fprintf(stderr, "cubevet: %s: %v\n", pkg.Path, e)
			}
			typeErrs++
		}
	}
	if typeErrs > 0 {
		fmt.Fprintf(stderr, "cubevet: %d type-check error(s); refusing to analyze\n", typeErrs)
		return 2
	}

	// Loading is sequential (the loader's cache and fset are shared), but
	// each package's passes are independent once the module view exists —
	// fan the analysis out across the CPUs.
	mod := analysis.NewModule(pkgs)
	perPkg := make([][]analysis.Finding, len(pkgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, pkg := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, pkg *analysis.Package) {
			defer wg.Done()
			defer func() { <-sem }()
			perPkg[i] = analysis.Analyze(mod, pkg, passes)
		}(i, pkg)
	}
	wg.Wait()

	var all []analysis.Finding
	for _, fs := range perPkg {
		all = append(all, fs...)
	}
	errors := 0
	for i := range all {
		all[i].Pos.Filename = relPath(cwd, all[i].Pos.Filename)
		if all[i].Severity != analysis.SeverityWarn {
			errors++
		}
	}

	if *asJSON {
		out := make([]jsonFinding, 0, len(all))
		for _, f := range all {
			out = append(out, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Pass: f.Pass, Severity: string(f.Severity), Message: f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, f := range all {
			if f.Severity == analysis.SeverityWarn {
				fmt.Fprintf(stdout, "%s:%d: [%s] warning: %s\n", f.Pos.Filename, f.Pos.Line, f.Pass, f.Message)
			} else {
				fmt.Fprintln(stdout, f)
			}
		}
	}
	if len(all) > 0 {
		fmt.Fprintf(stderr, "cubevet: %d finding(s), %d gating\n", len(all), errors)
	}
	if errors > 0 {
		return 1
	}
	return 0
}

// relPath shortens an absolute finding path relative to the working
// directory when possible.
func relPath(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil {
		return rel
	}
	return path
}
