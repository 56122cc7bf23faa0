package scenario

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
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
	args := make([]any, len(t.Columns))
	for i, c := range t.Columns {
		headFmts[i] = c.HeadFmt
		cellFmts[i] = c.CellFmt
		args[i] = c.Head
	}
	if _, err := fmt.Fprintf(w, strings.Join(headFmts, " ")+"\n", args...); err != nil {
		return err
	}
	rowFmt := strings.Join(cellFmts, " ") + "\n"
	for i := 0; i < len(t.Cells); i += len(args) {
		for j := range args {
			args[j] = t.Cells[i+j].Value()
		}
		if _, err := fmt.Fprintf(w, rowFmt, args...); err != nil {
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
// JSON output needs no knowledge of the text-layout fmt verbs. It is
// AppendJSON(nil).
func (t Table) MarshalJSON() ([]byte, error) { return t.AppendJSON(nil) }

// AppendJSON appends the table's MarshalJSON bytes to b. A row's record
// is what encoding/json makes of a map[string]any holding it, keys
// sorted, appended straight into b. On error it returns nil.
func (t Table) AppendJSON(b []byte) ([]byte, error) {
	if len(t.Columns) == 0 {
		b = append(b, `{"title":`...)
		b = AppendJSONString(b, t.Title)
		b = append(b, `,"text":`...)
		b = AppendJSONString(b, t.Text)
		return append(b, '}'), nil
	}
	// byKey lists the column indices in key order. It stays on the stack
	// up to 16 columns.
	var keyOrder [16]int
	byKey := keyOrder[:0]
	for i := range t.Columns {
		byKey = append(byKey, i)
	}
	slices.SortFunc(byKey, func(a, b int) int { return strings.Compare(t.Columns[a].Key, t.Columns[b].Key) })

	b = slices.Grow(b, t.jsonSize())
	b = append(b, `{"title":`...)
	b = AppendJSONString(b, t.Title)
	b = append(b, `,"columns":[`...)
	for i, c := range t.Columns {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendJSONString(b, c.Key)
	}
	b = append(b, `],"rows":[`...)
	for i := 0; i < len(t.Cells); i += len(byKey) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		for k, j := range byKey {
			if k > 0 {
				b = append(b, ',')
			}
			b = AppendJSONString(b, t.Columns[j].Key)
			b = append(b, ':')
			var err error
			if b, err = t.Cells[i+j].appendJSON(b); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// AppendJSON appends exactly what json.Marshal(r) returns, error text
// included: the params go through encoding/json, and each table's bytes
// are appended by Table.AppendJSON into the same buffer, so nothing
// re-validates or re-compacts them.
func (r *Result) AppendJSON(b []byte) ([]byte, error) {
	if r == nil {
		return append(b, "null"...), nil
	}
	params, err := json.Marshal(&r.Params)
	if err != nil {
		return nil, err
	}
	size := 64 + len(r.Scenario) + len(params)
	for _, t := range r.Tables {
		size += t.jsonSize()
	}
	b = slices.Grow(b, size)
	b = append(b, `{"scenario":`...)
	b = AppendJSONString(b, r.Scenario)
	b = append(b, `,"params":`...)
	b = append(b, params...)
	b = append(b, `,"tables":`...)
	if r.Tables == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, t := range r.Tables {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = t.AppendJSON(b); err != nil {
				return nil, &json.MarshalerError{Type: reflect.TypeFor[Table](), Err: err}
			}
		}
		b = append(b, ']')
	}
	if len(r.Failures) > 0 {
		b = append(b, `,"failures":[`...)
		for i, f := range r.Failures {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"sweep":`...)
			b = AppendJSONString(b, f.Sweep)
			b = append(b, `,"cell":`...)
			b = strconv.AppendInt(b, int64(f.Cell), 10)
			b = append(b, `,"error":`...)
			b = AppendJSONString(b, f.Error)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// jsonSize estimates the length of the table's JSON: its title and
// text, and per row (and once for the column list) each key with its
// quotes, colon and comma plus a number.
func (t Table) jsonSize() int {
	rowSize := 2
	for _, c := range t.Columns {
		rowSize += len(c.Key) + 24
	}
	return 32 + len(t.Title) + len(t.Text) + rowSize*(len(t.Cells)/max(len(t.Columns), 1)+1)
}

// AppendJSONString appends s quoted as encoding/json quotes it. Plain
// printable ASCII with nothing to HTML-escape is copied as is; any other
// string goes through encoding/json.
func AppendJSONString(b []byte, s string) []byte {
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

// appendJSON appends the cell as encoding/json encodes its value. A NaN
// or ±Inf float, which encoding/json refuses, fails with its error.
func (c Cell) appendJSON(b []byte) ([]byte, error) {
	switch {
	case c.kind == 's':
		return AppendJSONString(b, c.s), nil
	case c.kind == 'd':
		return strconv.AppendInt(b, int64(c.n), 10), nil
	case math.IsInf(c.f, 0) || math.IsNaN(c.f):
		_, err := json.Marshal(c.f)
		return nil, err
	}
	return appendJSONFloat(b, c.f), nil
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
// numeric cells come back as F. A record that lacks a column, or holds
// anything but a number or a string, is an error.
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
	t.Columns, t.Cells = nil, nil
	for _, k := range aux.Columns {
		t.Columns = append(t.Columns, Column{Key: k})
	}
	for i, rec := range aux.Rows {
		for _, k := range aux.Columns {
			switch v := rec[k].(type) {
			case float64:
				t.Cells = append(t.Cells, F(v))
			case string:
				t.Cells = append(t.Cells, S(v))
			default:
				return fmt.Errorf("scenario: table %q row %d: %q is %v, not a number or a string", t.Title, i, k, v)
			}
		}
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
			for i := 0; i < len(t.Cells); i += len(t.Columns) {
				rec := []string{res.Scenario, t.Title}
				for _, c := range t.Cells[i : i+len(t.Columns)] {
					rec = append(rec, fmt.Sprint(c.Value()))
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
