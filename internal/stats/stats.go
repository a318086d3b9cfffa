// Package stats provides the small reporting toolkit behind the
// experiment harness: aligned ASCII tables, CSV export, speedup math and
// trace bucketing for the active-vertex figures.
package stats

import (
	"fmt"
	"io"
	"strings"

	"crono/internal/exec"
)

// Table is a titled grid of cells rendered as aligned ASCII or CSV.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Addf appends a row of formatted values: each argument is rendered with
// %v, floats with 3 significant decimals.
func (t *Table) Addf(cells ...any) {
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
	t.Add(row...)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
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
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV renders the table as comma-separated values (quoting cells that
// contain commas or quotes).
func (t *Table) CSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// Speedup returns sequential/parallel, guarding zero.
func Speedup(seq, par uint64) float64 {
	if par == 0 {
		return 0
	}
	return float64(seq) / float64(par)
}

// BreakdownRow formats the six completion-time components of a report as
// fractions of total thread time, in paper order.
func BreakdownRow(b exec.Breakdown) []string {
	f := b.Fractions()
	out := make([]string, exec.NumComponents)
	for i := range f {
		out[i] = fmt.Sprintf("%.3f", f[i])
	}
	return out
}

// BucketedTrace resamples an active-vertex trace into nb equal buckets of
// normalized execution time, each holding the mean active count observed
// in that bucket normalized to the trace maximum (Figure 2's axes).
// Empty buckets carry forward the previous value. A non-positive bucket
// count returns nil.
func BucketedTrace(trace []exec.ActiveSample, total uint64, nb int) []float64 {
	if nb <= 0 {
		return nil
	}
	out := make([]float64, nb)
	if len(trace) == 0 || total == 0 {
		return out
	}
	var maxA int64 = 1
	for _, s := range trace {
		if s.Active > maxA {
			maxA = s.Active
		}
	}
	sum := make([]float64, nb)
	cnt := make([]int, nb)
	for _, s := range trace {
		b := int(s.Time * uint64(nb) / (total + 1))
		if b >= nb {
			b = nb - 1
		}
		sum[b] += float64(s.Active)
		cnt[b]++
	}
	prev := 0.0
	for i := 0; i < nb; i++ {
		if cnt[i] > 0 {
			prev = sum[i] / float64(cnt[i]) / float64(maxA)
		}
		out[i] = prev
	}
	return out
}

// Sparkline renders values in [0,1] as a unicode mini-chart.
func Sparkline(vals []float64) string {
	marks := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range vals {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		b.WriteRune(marks[int(v*float64(len(marks)-1)+0.5)])
	}
	return b.String()
}
