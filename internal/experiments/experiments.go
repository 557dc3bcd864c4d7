// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) as printable tables. The cmd/figures CLI drives these
// functions and shape_test.go asserts their qualitative shape. See DESIGN.md
// §3 for the experiment index and what each table is compared against.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is one regenerated table or figure: rows of formatted cells plus
// the context a reader needs to compare against the paper.
type Table struct {
	ID     string // experiment id, e.g. "fig9"
	Title  string
	Paper  string // what the paper reports (the expectation)
	Header []string
	Rows   [][]string
	Notes  []string // substitutions, scaled parameters, caveats
}

// AddRow appends a row of cells formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(w, "paper: %s\n", t.Paper)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// All returns every experiment in presentation order, keyed by ID. Each
// entry is a constructor so callers pay only for what they run.
func All() []NamedExperiment {
	return []NamedExperiment{
		{"table2", "Dataset inventory (Table II)", Table2Datasets},
		{"fig1", "LCC data reuse histogram (Fig. 1 right)", Fig1DataReuse},
		{"fig4", "Remote-read concentration (Fig. 4)", Fig4DataReuse},
		{"fig5", "Reuse and entry size vs degree (Fig. 5)", Fig5CacheEntries},
		{"table3", "Intersection methods (Table III)", Table3Intersection},
		{"fig6", "Shared-memory strong scaling (Fig. 6)", Fig6SharedScaling},
		{"fig7", "Cache behaviour vs cache size (Fig. 7)", Fig7CacheSize},
		{"fig8", "Application-defined scores (Fig. 8)", Fig8Scores},
		{"fig9", "Small-scale strong scaling (Fig. 9)", Fig9SmallScale},
		{"fig10", "Large-scale strong scaling (Fig. 10)", Fig10LargeScale},
		{"ablation-cutoff", "Hybrid cutoff ablation (A1)", AblationCutoff},
		{"ablation-overlap", "Double-buffering ablation (A2)", AblationOverlap},
		{"ablation-cyclic", "Cyclic vs block 1D ablation (A3)", AblationCyclic},
		{"ablation-orientation", "Orientation / forward-algorithm ablation (A5)", AblationOrientation},
		{"ablation-noise", "Noise sensitivity, async vs BSP (A7)", AblationNoise},
		{"ablation-disttc", "DistTC shadow-edge baseline (A8)", AblationDistTC},
		{"ablation-2d", "1D vs 2D asynchronous distribution (A9)", Ablation2D},
		{"ablation-pushpull", "Push vs pull dichotomy (A10)", AblationPushPull},
		{"ablation-delegation", "Static delegation vs dynamic caching (A11)", AblationDelegation},
		{"ablation-relabel", "Random relabeling vs degree-ordered ids (A12)", AblationRelabel},
		{"ablation-replication", "Replicated-groups 1.5D distribution (A13)", AblationReplication},
	}
}

// NamedExperiment pairs an experiment ID with its constructor.
type NamedExperiment struct {
	ID    string
	Title string
	Make  func() *Table
}

// Lookup finds an experiment by ID.
func Lookup(id string) (NamedExperiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return NamedExperiment{}, false
}
