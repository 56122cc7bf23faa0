package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// mapTableJSON is Table.MarshalJSON as it was before rows were appended
// straight into one buffer: each row becomes a map[string]any and
// encoding/json renders the lot. It is the oracle FuzzTableJSON holds
// the direct encoder to, byte for byte and error for error.
func mapTableJSON(t Table) ([]byte, error) {
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

// label is a named string type: not special-cased by the direct
// encoder, so it exercises the encoding/json fallback.
type label string

// fuzzTable builds a table from fuzz inputs. keys is split on '|' into
// the column keys (duplicates and empty keys allowed); every byte of
// cells adds one cell to the current row or ends it, the cell's type
// chosen by the byte, so rows come out ragged in both directions.
func fuzzTable(title, keys string, cells []byte, s string, x float64, n int) Table {
	tb := Table{Title: title}
	for _, k := range strings.Split(keys, "|") {
		tb.Columns = append(tb.Columns, Column{Key: k})
	}
	var row []any
	for _, c := range cells {
		switch c % 10 {
		case 0:
			tb.Rows = append(tb.Rows, row)
			row = nil
			continue
		case 1:
			row = append(row, nil)
		case 2:
			row = append(row, s)
		case 3:
			row = append(row, x)
		case 4:
			row = append(row, n)
		case 5:
			row = append(row, c&0x10 != 0)
		case 6:
			row = append(row, x*math.Pow(10, float64(int(c>>4)-8)))
		case 7:
			row = append(row, label(s))
		case 8:
			row = append(row, float32(x))
		case 9:
			row = append(row, []any{s, x, int64(n)})
		}
	}
	if row != nil {
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}

// FuzzTableJSON: the direct row encoder emits exactly the bytes, and
// fails with exactly the error, of encoding/json over a map per row —
// HTML escaping, U+2028, invalid UTF-8, float formats either side of
// the 1e-6 and 1e21 cut-offs, ragged rows and duplicate keys included.
func FuzzTableJSON(f *testing.F) {
	f.Add("Fig 5", "backend|size_mb|read_gbps|write_gbps", []byte{2, 3, 4, 6, 0, 2, 3}, "node-local", 12.5, 8)
	f.Add("<b>&amp;</b>", "a|b|a|c", []byte{3, 2, 0, 2, 3, 4, 1, 0}, "x<y>&z", 1e-6, -3)
	f.Add("ragged", "k|k|k", []byte{2, 3, 4, 6, 7, 8, 0, 0, 3}, "\u2028    \"\n\t\x01\x7f", 9.999999e-7, 0)
	f.Add("\xff\xfe bad utf-8", "\xff|é|<k>", []byte{2, 7, 9, 0, 5, 21}, "\xc3\x28 and \xe2\x82", 1e21, 1<<62)
	f.Add("", "", []byte{3, 6, 22, 38, 54, 70, 86, 102, 118, 134, 150}, "", 9.999999999999999e20, -1)
	f.Add("tiny", "f|g", []byte{3, 8, 0, 6, 8}, "s", -1.2345e-7, 7)
	f.Add("nan", "f", []byte{3}, "s", math.NaN(), 0)
	f.Add("inf", "f|g", []byte{2, 3}, "s", math.Inf(-1), 0)
	f.Add("inf in the fallback", "f", []byte{9}, "s", math.Inf(1), 0)
	f.Fuzz(func(t *testing.T, title, keys string, cells []byte, s string, x float64, n int) {
		tb := fuzzTable(title, keys, cells, s, x, n)
		got, gotErr := tb.MarshalJSON()
		want, wantErr := mapTableJSON(tb)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %v, encoding/json says %v", gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoded\n%s\nencoding/json over a map per row gives\n%s", got, want)
		}
	})
}
