package exper

import (
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := &Table{
		ID:      "sample",
		Title:   "a sample",
		Columns: []string{"a", "b"},
		Notes:   []string{"a note"},
	}
	t.AddRow(1, 2.5)
	t.AddRow("x,y", `quo"ted`)
	t.AddRow(int64(7), 1234567.0)
	return t
}

func TestTableString(t *testing.T) {
	s := sampleTable().String()
	for _, want := range []string{"== sample: a sample ==", "a    b", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("text rendering missing %q:\n%s", want, s)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	s := sampleTable().Markdown()
	for _, want := range []string{"### sample — a sample", "| a | b |", "| --- | --- |", "> a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("markdown missing %q:\n%s", want, s)
		}
	}
}

func TestAddRowFormats(t *testing.T) {
	tab := &Table{Columns: []string{"v"}}
	tab.AddRow(0.0)
	tab.AddRow(0.25)
	tab.AddRow(3.14159)
	tab.AddRow(150.7)
	tab.AddRow(2.5e6)
	want := []string{"0", "0.25", "3.14", "151", "2.5e+06"}
	for i, w := range want {
		if tab.Rows[i][0] != w {
			t.Errorf("row %d = %q, want %q", i, tab.Rows[i][0], w)
		}
	}
}
