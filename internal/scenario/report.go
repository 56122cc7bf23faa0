package scenario

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// A Reporter renders scenario results to a writer. The text reporter
// reproduces the paper tables byte-for-byte (pinned by golden tests);
// JSON and CSV carry the same metrics as machine-readable records.
type Reporter interface {
	Report(w io.Writer, results []*Result) error
}

// Formats lists the -format values accepted by NewReporter.
func Formats() []string { return []string{"text", "json", "csv"} }

// NewReporter returns the reporter for a -format flag value.
func NewReporter(format string) (Reporter, error) {
	switch format {
	case "text":
		return textReporter{}, nil
	case "json":
		return jsonReporter{}, nil
	case "csv":
		return csvReporter{}, nil
	default:
		return nil, fmt.Errorf("unknown format %q (valid: %s)", format, strings.Join(Formats(), ", "))
	}
}

// WriteTable renders one table in paper text layout: title line, header
// line from the columns' HeadFmt, one line per row from CellFmt — or the
// freeform Text body for column-less tables.
func WriteTable(w io.Writer, t Table) error {
	if t.Title != "" {
		if _, err := fmt.Fprintln(w, t.Title); err != nil {
			return err
		}
	}
	if len(t.Columns) == 0 {
		_, err := io.WriteString(w, t.Text)
		return err
	}
	headFmts := make([]string, len(t.Columns))
	cellFmts := make([]string, len(t.Columns))
	heads := make([]any, len(t.Columns))
	for i, c := range t.Columns {
		headFmts[i] = c.HeadFmt
		cellFmts[i] = c.CellFmt
		heads[i] = c.Head
	}
	if _, err := fmt.Fprintf(w, strings.Join(headFmts, " ")+"\n", heads...); err != nil {
		return err
	}
	rowFmt := strings.Join(cellFmts, " ") + "\n"
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, rowFmt, row...); err != nil {
			return err
		}
	}
	return nil
}

type textReporter struct{}

func (textReporter) Report(w io.Writer, results []*Result) error {
	for _, res := range results {
		for _, t := range res.Tables {
			if err := WriteTable(w, t); err != nil {
				return err
			}
			// Blank separator after every artifact, as the pre-registry
			// CLI printed between blocks.
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		// Failed sweep cells are rendered explicitly — a partial result
		// must never pass for a complete one. Healthy runs emit nothing
		// here, keeping their output byte-identical.
		if err := writeFailures(w, res); err != nil {
			return err
		}
	}
	return nil
}

// writeFailures renders a result's failed sweep cells as a text block
// shaped like the table artifacts (title, rows, blank separator).
func writeFailures(w io.Writer, res *Result) error {
	if len(res.Failures) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "FAILED cells — %s (%d of the sweep's cells did not complete)\n",
		res.Scenario, len(res.Failures)); err != nil {
		return err
	}
	for _, f := range res.Failures {
		if _, err := fmt.Fprintf(w, "  %s[%d]: %s\n", f.Sweep, f.Cell, f.Error); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// MarshalJSON renders a Table as {"title", "columns", "rows"} with rows
// as key→value records (or {"title", "text"} for freeform tables), so
// JSON output needs no knowledge of the text-layout fmt verbs.
func (t Table) MarshalJSON() ([]byte, error) {
	if len(t.Columns) == 0 {
		return json.Marshal(struct {
			Title string `json:"title"`
			Text  string `json:"text"`
		}{t.Title, t.Text})
	}
	keys := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		keys[i] = c.Key
	}
	rows := make([]map[string]any, len(t.Rows))
	for i, row := range t.Rows {
		rec := make(map[string]any, len(row))
		// Ragged rows (possible in user-registered scenarios) drop the
		// excess cells rather than panicking mid-encode.
		for j, v := range row {
			if j >= len(keys) {
				break
			}
			rec[keys[j]] = v
		}
		rows[i] = rec
	}
	return json.Marshal(struct {
		Title   string           `json:"title"`
		Columns []string         `json:"columns"`
		Rows    []map[string]any `json:"rows"`
	}{t.Title, keys, rows})
}

// UnmarshalJSON inverts MarshalJSON so JSON results round-trip (the
// serving client depends on this). The text-layout fmt verbs are not
// part of the wire shape, so decoded Columns carry keys only and
// numeric cells come back as float64.
func (t *Table) UnmarshalJSON(data []byte) error {
	var aux struct {
		Title   string           `json:"title"`
		Text    string           `json:"text"`
		Columns []string         `json:"columns"`
		Rows    []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	t.Title, t.Text = aux.Title, aux.Text
	t.Columns, t.Rows = nil, nil
	for _, k := range aux.Columns {
		t.Columns = append(t.Columns, Column{Key: k})
	}
	for _, rec := range aux.Rows {
		row := make([]any, len(aux.Columns))
		for j, k := range aux.Columns {
			row[j] = rec[k]
		}
		t.Rows = append(t.Rows, row)
	}
	return nil
}

type jsonReporter struct{}

func (jsonReporter) Report(w io.Writer, results []*Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Results []*Result `json:"results"`
	}{results})
}

type csvReporter struct{}

func (csvReporter) Report(w io.Writer, results []*Result) error {
	cw := csv.NewWriter(w)
	for _, res := range results {
		for _, t := range res.Tables {
			if len(t.Columns) == 0 {
				continue // freeform artifacts (timelines) have no records
			}
			header := []string{"scenario", "table"}
			for _, c := range t.Columns {
				header = append(header, c.Key)
			}
			if err := cw.Write(header); err != nil {
				return err
			}
			for _, row := range t.Rows {
				rec := []string{res.Scenario, t.Title}
				// Bound by the header width so ragged rows from
				// user-registered scenarios cannot emit records wider than
				// the header (matching the JSON marshaller's truncation).
				for j, v := range row {
					if j >= len(t.Columns) {
						break
					}
					rec = append(rec, fmt.Sprint(v))
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
		// Failed sweep cells become their own record block, so CSV
		// consumers see the holes instead of inferring them from missing
		// rows. Healthy runs emit nothing.
		if len(res.Failures) > 0 {
			if err := cw.Write([]string{"scenario", "failed_sweep", "cell", "error"}); err != nil {
				return err
			}
			for _, f := range res.Failures {
				rec := []string{res.Scenario, f.Sweep, fmt.Sprint(f.Cell), f.Error}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
