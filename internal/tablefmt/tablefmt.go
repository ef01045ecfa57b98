// Package tablefmt renders experiment results as aligned text tables and
// CSV — the harness's counterpart to the paper's figures.
package tablefmt

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a rectangular result set: one row per x-value, one column per
// series (algorithm).
type Table struct {
	Title   string
	XLabel  string
	Columns []string
	rows    []row
}

type row struct {
	x float64
	y []float64
}

// New returns an empty table with the given metadata.
func New(title, xLabel string, columns ...string) *Table {
	return &Table{Title: title, XLabel: xLabel, Columns: columns}
}

// AddRow appends one x-value with one y per column. It panics on column
// count mismatches — a programming error in the harness.
func (t *Table) AddRow(x float64, ys ...float64) {
	if len(ys) != len(t.Columns) {
		panic(fmt.Sprintf("tablefmt: row has %d values for %d columns", len(ys), len(t.Columns)))
	}
	t.rows = append(t.rows, row{x: x, y: append([]float64(nil), ys...)})
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Column returns the series values of the named column, or nil if absent.
func (t *Table) Column(name string) []float64 {
	idx := -1
	for i, c := range t.Columns {
		if c == name {
			idx = i
			break
		}
	}
	if idx == -1 {
		return nil
	}
	out := make([]float64, len(t.rows))
	for i, r := range t.rows {
		out[i] = r.y[idx]
	}
	return out
}

// WriteText renders an aligned human-readable table.
func (t *Table) WriteText(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	headers := append([]string{t.XLabel}, t.Columns...)
	cells := make([][]string, 0, len(t.rows)+1)
	cells = append(cells, headers)
	for _, r := range t.rows {
		line := []string{formatNum(r.x)}
		for _, y := range r.y {
			line = append(line, formatNum(y))
		}
		cells = append(cells, line)
	}
	widths := make([]int, len(headers))
	for _, line := range cells {
		for i, c := range line {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for li, line := range cells {
		var b strings.Builder
		for i, c := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			b.WriteString(c)
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
		if li == 0 {
			total := 0
			for _, wd := range widths {
				total += wd
			}
			total += 2 * (len(widths) - 1)
			if _, err := io.WriteString(w, strings.Repeat("-", total)+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV renders the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	headers := append([]string{t.XLabel}, t.Columns...)
	if _, err := fmt.Fprintln(w, strings.Join(headers, ",")); err != nil {
		return err
	}
	for _, r := range t.rows {
		fields := []string{formatNum(r.x)}
		for _, y := range r.y {
			fields = append(fields, formatNum(y))
		}
		if _, err := fmt.Fprintln(w, strings.Join(fields, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the table as one machine-readable JSON object:
// title, axis label, column names, and a row array of {x, y} pairs with y
// in column order. Checked-in experiment artifacts (BENCH_*.json) use
// this format.
func (t *Table) WriteJSON(w io.Writer) error {
	type jsonRow struct {
		X float64   `json:"x"`
		Y []float64 `json:"y"`
	}
	doc := struct {
		Title   string    `json:"title"`
		XLabel  string    `json:"x_label"`
		Columns []string  `json:"columns"`
		Rows    []jsonRow `json:"rows"`
	}{Title: t.Title, XLabel: t.XLabel, Columns: t.Columns}
	for _, r := range t.rows {
		doc.Rows = append(doc.Rows, jsonRow{X: r.x, Y: append([]float64(nil), r.y...)})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func formatNum(x float64) string {
	if x == float64(int64(x)) && x < 1e15 && x > -1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.3f", x)
}
