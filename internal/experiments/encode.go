package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// jsonTable is the stable serialized form of a Table.
type jsonTable struct {
	ID    string    `json:"id"`
	Title string    `json:"title"`
	Cols  []string  `json:"cols"`
	Rows  []jsonRow `json:"rows"`
	Notes []string  `json:"notes,omitempty"`
}

type jsonRow struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

// WriteJSON emits the table as a single JSON object, for plotting
// pipelines that postprocess experiment output.
func (t *Table) WriteJSON(w io.Writer) error {
	jt := jsonTable{ID: t.ID, Title: t.Title, Cols: t.Cols, Notes: t.Notes}
	for _, r := range t.Rows {
		jt.Rows = append(jt.Rows, jsonRow{Label: r.Label, Values: r.Values})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}

// WriteCSV emits the table as CSV: a header row of column labels, then
// one row per series.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"series"}, t.Cols...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := make([]string, 0, len(r.Values)+1)
		rec = append(rec, r.Label)
		for _, v := range r.Values {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteBenchstat emits the table in Go benchmark output format, one line
// per row with a value-unit pair per column, so two runs can be compared
// with benchstat:
//
//	tagmatch-bench -format benchstat fig4 > old.txt
//	... change ...
//	tagmatch-bench -format benchstat fig4 > new.txt
//	benchstat old.txt new.txt
//
// Row labels and column names are sanitized into benchmark-name and unit
// tokens (no spaces); the iteration count is always 1.
func (t *Table) WriteBenchstat(w io.Writer) error {
	for _, r := range t.Rows {
		if _, err := fmt.Fprintf(w, "Benchmark%s/%s 1", benchToken(t.ID), benchToken(r.Label)); err != nil {
			return err
		}
		for i, v := range r.Values {
			unit := "value"
			if i < len(t.Cols) {
				unit = benchToken(t.Cols[i])
			}
			if _, err := fmt.Fprintf(w, " %s %s", strconv.FormatFloat(v, 'g', -1, 64), unit); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// benchToken rewrites a free-form label into a single benchmark token:
// spaces and commas collapse to dashes, everything else passes through
// (benchstat accepts '/' in names and in units like ns/q).
func benchToken(s string) string {
	out := make([]byte, 0, len(s))
	dash := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == ',' || c == '\t' {
			dash = true
			continue
		}
		if dash && len(out) > 0 {
			out = append(out, '-')
		}
		dash = false
		out = append(out, c)
	}
	return string(out)
}
