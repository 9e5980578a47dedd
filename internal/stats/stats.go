// Package stats holds the small measurement and reporting toolkit shared by
// the experiment drivers: aligned text tables (the "rows the paper reports"),
// named series, and memory measurement helpers.
package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"
)

// Table renders aligned monospace tables.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; missing cells render empty, extra cells are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i, wd := range widths {
		sep[i] = strings.Repeat("-", wd)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// MarshalJSON encodes the table as {"title": ..., "columns": [...],
// "rows": [[...], ...]} so molqbench -format json emits machine-readable
// results.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}{t.Title, t.Columns, rows})
}

// RenderCSV writes the table as RFC-4180 CSV (header row first; the title is
// emitted as a comment line).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Dur formats a duration compactly for table cells.
func Dur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// Speedup formats a ratio like "12.3x"; returns "-" for a zero denominator.
func Speedup(base, other time.Duration) string {
	if other <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(other))
}

// Bytes formats byte counts with binary units.
func Bytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := uint64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// HeapDelta runs f and returns the growth of live heap bytes it caused,
// measured after garbage collection on both sides. It is a coarse metric
// (matching the paper's "memory consumption" plots) — interpret comparatively.
func HeapDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}
