// Package stats provides the metrics and formatting used across the
// evaluation: geometric means, the multiprogrammed weighted-speedup metric
// of §V-A, and plain-text table rendering for the experiment harness.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Geomean returns the geometric mean of xs; it panics on non-positive
// inputs, which would indicate a broken speedup computation upstream.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geomean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// WeightedSpeedup implements the paper's multiprogrammed metric:
// Σ(IPC_multi / IPC_single) over the applications in a mix, where IPC_single
// is each application's IPC running alone on the same configuration.
func WeightedSpeedup(ipcMulti, ipcSingle []float64) float64 {
	if len(ipcMulti) != len(ipcSingle) {
		panic("stats: weighted speedup over mismatched slices")
	}
	s := 0.0
	for i := range ipcMulti {
		if ipcSingle[i] <= 0 {
			panic("stats: zero single-application IPC")
		}
		s += ipcMulti[i] / ipcSingle[i]
	}
	return s
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Table is a simple column-aligned text table with CSV export, the output
// format of every experiment.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v, floats with 3 decimals.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the aligned table.
func (t *Table) String() string {
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
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
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
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// are quoted).
func (t *Table) CSV() string {
	var sb strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(esc(c))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}
