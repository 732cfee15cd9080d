package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := realMain(args, &sb)
	return sb.String(), err
}

func TestList(t *testing.T) {
	s, err := capture(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig10", "table3", "theorem2", "ablation-paths"} {
		if !strings.Contains(s, id) {
			t.Errorf("list missing %q", id)
		}
	}
}

func TestRunOneText(t *testing.T) {
	s, err := capture(t, "-exp", "table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "== table1:") {
		t.Errorf("text output malformed:\n%s", s)
	}
}

func TestRunOneMarkdown(t *testing.T) {
	s, err := capture(t, "-exp", "table2", "-format", "md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "### table2") {
		t.Errorf("md output malformed:\n%s", s)
	}
}

func TestRunOneJSON(t *testing.T) {
	s, err := capture(t, "-exp", "table2", "-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	var tab struct {
		ID      string     `json:"id"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(s), &tab); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, s)
	}
	if tab.ID != "table2" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
		t.Errorf("json output malformed:\n%s", s)
	}
}

func TestExperimentsErrors(t *testing.T) {
	if _, err := capture(t, "-exp", "fig999"); err == nil {
		t.Error("unknown experiment accepted")
	}
	for _, format := range []string{"xml", "csv"} {
		if _, err := capture(t, "-exp", "table1", "-format", format); err == nil {
			t.Errorf("unknown format %q accepted", format)
		}
	}
	if _, err := capture(t); err == nil {
		t.Error("no mode accepted")
	}
}
