// Package experiments implements the reproduction of every figure and
// comparative claim in the paper as a runnable, parameterised experiment.
// The paper has no measurement tables — its eight figures are protocol
// diagrams — so each experiment turns one figure (or one claim in the
// prose) into a scenario and measures the behaviour the paper asserts.
// README's "What the paper contributes" section maps the paper onto the
// code; `go run ./cmd/experiments -list` prints the experiment ids.
//
// Every experiment is deterministic given its Seed.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
)

// Table is a printable experiment result: a header row plus data rows,
// rendered as an aligned text table (the "figure" we regenerate).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, wd := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", wd))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// f formats a float for table cells.
func f(v float64) string { return fmt.Sprintf("%.3f", v) }

// d formats an int for table cells.
func d(v int) string { return fmt.Sprintf("%d", v) }

// newRand returns a seeded PRNG for an experiment.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
