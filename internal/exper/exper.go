// Package exper regenerates every table and figure of the paper's
// evaluation: each experiment produces a Table of series that has the same
// axes as the corresponding artifact (Tables 1-3, Figures 9-19, Theorems 2
// and 3, and the Section 9 comparison). The cmd/experiments binary prints
// them; the repository benchmarks run them under testing.B.
//
// Absolute values are simulated-machine microseconds, not the authors'
// testbed milliseconds; the reproduction target is the shape of each curve
// (who wins, by what factor, where the crossovers fall). EXPERIMENTS.md
// records the paper-vs-measured comparison per artifact.
package exper

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Table is one regenerated artifact.
type Table struct {
	ID      string   // e.g. "fig10"
	Title   string   // artifact description
	Columns []string // column headers
	Rows    [][]string
	Notes   []string // reproduction caveats, substitutions
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		case int64:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6:
		return fmt.Sprintf("%.4g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table with the
// notes as a trailing blockquote.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	sb.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	sb.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, r := range t.Rows {
		sb.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n> %s", n)
	}
	if len(t.Notes) > 0 {
		sb.WriteByte('\n')
	}
	return sb.String()
}

// JSON renders the table as one indented JSON object — id, title, columns,
// rows, notes — for machine-consumed artifacts (the nightly chaos CI job
// uploads the chaos sweep in this form).
func (t *Table) JSON() string {
	obj := struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Columns, t.Rows, t.Notes}
	b, err := json.MarshalIndent(&obj, "", "  ")
	if err != nil {
		// Unreachable for string-only fields; keep the artifact well formed.
		return fmt.Sprintf("{\"id\":%q,\"error\":%q}", t.ID, err.Error())
	}
	return string(b) + "\n"
}

// Generator produces one artifact.
type Generator func() (*Table, error)

var registry = map[string]Generator{}

func register(id string, g Generator) {
	if _, dup := registry[id]; dup {
		panic("exper: duplicate experiment " + id)
	}
	registry[id] = g
}

// IDs returns every registered experiment id, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run generates one experiment by id.
func Run(id string) (*Table, error) {
	g, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exper: unknown experiment %q (have %v)", id, IDs())
	}
	return g()
}
