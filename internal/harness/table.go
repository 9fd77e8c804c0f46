package harness

import (
	"bytes"
	"fmt"
	"io"
	"text/tabwriter"
)

// Table is one result table of an experiment: rows of values under a
// header, and notes under the rows. RunExperiments prints it.
type Table struct {
	header string // column names, tab-separated
	format string // fmt format of a row: cells tab-separated, no newline
	rows   []row
	notes  []string
}

// row holds the values of one table row. format, when set, replaces the
// table's for a row its cells do not fit.
type row struct {
	format string
	cells  []any
}

func newTable(header, format string) *Table { return &Table{header: header, format: format} }

// add appends a row printed with the table's format.
func (t *Table) add(cells ...any) { t.rows = append(t.rows, row{cells: cells}) }

// addf appends a row printed with its own format.
func (t *Table) addf(format string, cells ...any) {
	t.rows = append(t.rows, row{format: format, cells: cells})
}

// print writes the table, its columns aligned, then its notes.
func (t *Table) print(buf *bytes.Buffer) {
	tw := tabwriter.NewWriter(buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, t.header)
	for _, r := range t.rows {
		format := t.format
		if r.format != "" {
			format = r.format
		}
		fmt.Fprintf(tw, format+"\n", r.cells...)
	}
	tw.Flush()
	for _, n := range t.notes {
		fmt.Fprintln(buf, n)
	}
}

// RunExperiments regenerates exps in order and prints each one's tables
// to w under its "==== ID: Title ====" banner, a blank line after each
// table. The first failing experiment stops the run: the error names it,
// and nothing of it or of any experiment after it is printed.
func RunExperiments(w io.Writer, exps []Experiment, quick bool) error {
	for _, e := range exps {
		tables, err := e.Run(quick)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "==== %s: %s ====\n", e.ID, e.Title)
		for i, t := range tables {
			if i > 0 {
				buf.WriteByte('\n')
			}
			t.print(&buf)
		}
		buf.WriteByte('\n')
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}
