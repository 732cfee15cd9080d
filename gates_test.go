package boolcube

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// The gates name tests, and every name they give must match one. A -run or
// -bench alternative that matches nothing is a step that silently stopped
// gating anything when its test was renamed or deleted.
// TestGatesNameLiveTests reads every `go test` command of the pre-PR gate
// and the CI workflow and requires each |-alternative of its -run pattern to
// match a Test, Fuzz or Example function, and each of its -bench pattern a
// Benchmark function, in the packages that command lists. Only the
// top-level element of a pattern is held (before the first unbracketed /):
// subtest names exist only at run time. The pattern ^$, which selects
// nothing on purpose, is skipped. The docs name tests too: every Test,
// Benchmark, Fuzz or Example name in DESIGN.md, README.md and EXPERIMENTS.md
// must be a prefix of a function somewhere in the module, as -run would
// select it.
func TestGatesNameLiveTests(t *testing.T) {
	all := testFuncs(t, []string{"./..."})
	docName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range docName.FindAllString(string(src), -1) {
			if !slices.ContainsFunc(all, func(fn string) bool { return strings.HasPrefix(fn, name) }) {
				t.Errorf("%s names %s, which no test, benchmark, fuzz or example function starts with", doc, name)
			}
		}
	}

	for _, file := range []string{"scripts/check.sh", ".github/workflows/check.yml"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		cmds := goTestCommands(string(src))
		if len(cmds) == 0 {
			t.Errorf("%s: no go test command found", file)
		}
		for _, cmd := range cmds {
			funcs := testFuncs(t, cmd.pkgs)
			for flag, pattern := range cmd.patterns {
				if pattern == "^$" {
					continue
				}
				for _, alt := range splitTop(splitTop(pattern, '/')[0], '|') {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s: -%s %q: %v", file, flag, pattern, err)
						continue
					}
					if !anyMatch(re, funcs, flag) {
						t.Errorf("%s: -%s alternative %q matches no function in %v", file, flag, alt, cmd.pkgs)
					}
				}
			}
		}
	}
}

type goTestCmd struct {
	patterns map[string]string // "run" / "bench" → pattern
	pkgs     []string          // package arguments, e.g. "." or "./internal/core/"
}

// goTestCommands returns the -run/-bench patterns and package arguments of
// every `go test` command in a shell script or workflow file. Only -run and
// -bench may take their value as a separate word: any other flag written
// that way ends the command early, its packages go unread, and the test
// fails loudly rather than passing.
func goTestCommands(src string) []goTestCmd {
	words := shellWords(src)
	var cmds []goTestCmd
	for i := 0; i+1 < len(words); i++ {
		if words[i] != "go" || words[i+1] != "test" {
			continue
		}
		cmd := goTestCmd{patterns: map[string]string{}}
		for i += 2; i < len(words); i++ {
			w := words[i]
			if w == "." || strings.HasPrefix(w, "./") {
				cmd.pkgs = append(cmd.pkgs, w)
				continue
			}
			if len(w) < 2 || w[0] != '-' || !unicode.IsLetter(rune(w[1])) {
				break // the command ended
			}
			name, value, inline := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if name != "run" && name != "bench" {
				continue
			}
			if !inline && i+1 < len(words) {
				i++
				value = words[i]
			}
			cmd.patterns[name] = value
		}
		i--
		cmds = append(cmds, cmd)
	}
	return cmds
}

// shellWords splits a script into words the way a shell would for this
// purpose: whitespace separates, quotes group, comment lines are dropped.
func shellWords(src string) []string {
	var lines []string
	for _, line := range strings.Split(src, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "#") {
			lines = append(lines, line)
		}
	}
	var words []string
	var w strings.Builder
	in, quote := false, rune(0)
	for _, r := range strings.Join(lines, "\n") {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			w.WriteRune(r)
		case r == '\'' || r == '"':
			quote, in = r, true
		case r == '\\':
		case unicode.IsSpace(r):
			if in {
				words = append(words, w.String())
				w.Reset()
				in = false
			}
		default:
			w.WriteRune(r)
			in = true
		}
	}
	if in {
		words = append(words, w.String())
	}
	return words
}

// splitTop splits s at every sep outside parentheses and brackets, as the
// testing package splits -run patterns into levels.
func splitTop(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '\\':
			i++
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// testFuncs returns the names of the top-level Test, Fuzz, Example and
// Benchmark functions in the _test.go files of the given package arguments
// ("./..." is every package of the module).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "/...")
		err := filepath.WalkDir(filepath.Clean(dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != filepath.Clean(dir) && (!recursive || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// anyMatch reports whether re selects one of funcs under the flag: -bench
// runs Benchmark functions, -run the Test, Fuzz and Example ones.
func anyMatch(re *regexp.Regexp, funcs []string, flag string) bool {
	prefixes := []string{"Test", "Fuzz", "Example"}
	if flag == "bench" {
		prefixes = []string{"Benchmark"}
	}
	for _, name := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}
