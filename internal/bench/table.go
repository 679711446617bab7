// Package bench is the experiment harness: one function per entry of the
// per-experiment index (E1–E17, see BENCHMARKS.md), each regenerating the
// corresponding claim of the paper as a printed table. cmd/renamebench is
// the CLI front end.
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is one experiment's output: a claim from the paper and the measured
// rows that reproduce (or refute) its shape.
type Table struct {
	ID    string
	Title string
	Claim string
	Cols  []string
	Rows  [][]string
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table to w in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "  claim: %s\n", t.Claim)
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		b.WriteString("  ")
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		fmt.Fprintln(w, b.String())
	}
	line(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as a GitHub-flavored markdown section (used to
// render the tables for docs).
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "**Paper claim.** %s\n\n", t.Claim)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Cols, " | "))
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "_Note: %s_\n\n", n)
	}
}

// CSV renders the table as comma-separated values with an id column, for
// plotting the figure series externally.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintf(w, "id,%s\n", strings.Join(t.Cols, ","))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "%s,%s\n", t.ID, strings.Join(row, ","))
	}
}

// FitExponent least-squares-fits y ≈ a·x^b on log-log axes and returns the
// exponent b. It quantifies growth shapes: measured per-process costs of a
// polylogarithmic algorithm fit exponents near 0 against the parameter,
// while a linear-cost baseline fits ≈ 1.
func FitExponent(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("bench: FitExponent needs two equal-length series")
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// lg returns log2(x) for x ≥ 1 (lg(1) reported as 1 to keep ratios finite).
func lg(x float64) float64 {
	if x <= 2 {
		return 1
	}
	return math.Log2(x)
}

// f1 formats a float with one decimal.
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }

// f2 formats a float with two decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// d formats an integer.
func d[T ~int | ~int64 | ~uint64](v T) string { return fmt.Sprintf("%d", v) }
