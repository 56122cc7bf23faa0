package scenario

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
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
// JSON output needs no knowledge of the text-layout fmt verbs. A row's
// record is what encoding/json makes of a map[string]any holding it —
// keys sorted, a duplicated column key keeping the row's last value, and
// a ragged row's cells past the last column dropped (possible in
// user-registered scenarios) — appended straight into one buffer.
func (t Table) MarshalJSON() ([]byte, error) {
	if len(t.Columns) == 0 {
		return json.Marshal(struct {
			Title string `json:"title"`
			Text  string `json:"text"`
		}{t.Title, t.Text})
	}
	// byKey lists the column indices in key order, ties by index, so the
	// last column of a run of equal keys is the one a map would keep.
	byKey := make([]int, len(t.Columns))
	rowSize := 2
	for i, c := range t.Columns {
		byKey[i] = i
		rowSize += len(c.Key) + 24 // quotes, colon, comma and a number
	}
	slices.SortStableFunc(byKey, func(a, b int) int { return strings.Compare(t.Columns[a].Key, t.Columns[b].Key) })

	b := make([]byte, 0, 32+len(t.Title)+rowSize*(len(t.Rows)+1))
	b = append(b, `{"title":`...)
	b = appendJSONString(b, t.Title)
	b = append(b, `,"columns":[`...)
	for i, c := range t.Columns {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, c.Key)
	}
	b = append(b, `],"rows":[`...)
	for i, row := range t.Rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		n, first := min(len(row), len(t.Columns)), true
		for k, j := range byKey {
			key := t.Columns[j].Key
			if j >= n || k+1 < len(byKey) && byKey[k+1] < n && t.Columns[byKey[k+1]].Key == key {
				continue // past the row's end, or overwritten by a later duplicate
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = appendJSONString(b, key)
			b = append(b, ':')
			var err error
			if b, err = appendJSONValue(b, row[j]); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// appendJSONString appends s quoted as encoding/json quotes it. Plain
// printable ASCII with nothing to HTML-escape is copied as is; any other
// string goes through encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONValue appends one cell as encoding/json encodes it. The
// types tables are built from are written directly; anything else, and
// the NaN and ±Inf floats encoding/json refuses, goes through it.
func appendJSONValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case string:
		return appendJSONString(b, v), nil
	case bool:
		return strconv.AppendBool(b, v), nil
	case int:
		return strconv.AppendInt(b, int64(v), 10), nil
	case float64:
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			return appendJSONFloat(b, v), nil
		}
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, enc...), nil
}

// appendJSONFloat appends a finite float64 in encoding/json's format:
// the shortest representation, in exponent form below 1e-6 and from
// 1e21 up, with the exponent's leading zero dropped.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
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
