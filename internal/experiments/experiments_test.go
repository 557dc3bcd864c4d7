package experiments

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "t",
		Title:  "demo",
		Paper:  "expected",
		Header: []string{"a", "long-header", "c"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("x", 1.23456, 42)
	tab.AddRow("longer-cell", "y", "z")
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== t: demo ==", "paper: expected", "long-header", "1.23", "longer-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	// Columns must align: header and first row share the first column width.
	lines := strings.Split(out, "\n")
	var hdr, row string
	for i, l := range lines {
		if strings.HasPrefix(l, "a ") {
			hdr = l
			row = lines[i+3] // separator, first row, second row
			break
		}
	}
	if hdr == "" || len(row) == 0 {
		t.Fatalf("could not locate header/row in output:\n%s", out)
	}
	if strings.Index(hdr, "long-header") != strings.Index(row, "y") {
		t.Errorf("columns misaligned:\n%s\n%s", hdr, row)
	}
}

func TestAddRowFormatsFloats(t *testing.T) {
	tab := &Table{Header: []string{"v"}}
	tab.AddRow(0.123456789)
	if got := tab.Rows[0][0]; got != "0.123" {
		t.Errorf("float cell = %q, want %q", got, "0.123")
	}
	tab.AddRow(7)
	if got := tab.Rows[1][0]; got != "7" {
		t.Errorf("int cell = %q", got)
	}
}

func TestLookupAndAllConsistent(t *testing.T) {
	all := All()
	if len(all) < 13 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		got, ok := Lookup(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("Lookup(%q) failed", e.ID)
		}
		if e.Make == nil {
			t.Errorf("experiment %q has nil constructor", e.ID)
		}
	}
	if _, ok := Lookup("not-an-experiment"); ok {
		t.Error("Lookup accepted an unknown id")
	}
	// Every paper artifact must be covered.
	for _, id := range []string{"table2", "table3", "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} {
		if !seen[id] {
			t.Errorf("paper artifact %s not registered", id)
		}
	}
}
