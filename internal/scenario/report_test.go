package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
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
	rows := make([]map[string]any, len(t.Cells)/len(keys))
	for i := range rows {
		rec := make(map[string]any, len(keys))
		for j, k := range keys {
			rec[k] = t.Cells[i*len(keys)+j].Value()
		}
		rows[i] = rec
	}
	return json.Marshal(struct {
		Title   string           `json:"title"`
		Columns []string         `json:"columns"`
		Rows    []map[string]any `json:"rows"`
	}{t.Title, keys, rows})
}

// fuzzTable builds a table from fuzz inputs. keys is split on '|' into
// the column keys, a repeated key dropped (scenario tables have unique
// keys); every byte of cells adds one cell, its kind and value chosen by
// the byte, and the cells fill whole rows, the rest dropped.
func fuzzTable(title, keys string, cells []byte, s string, x float64, n int) Table {
	tb := Table{Title: title}
	for _, k := range strings.Split(keys, "|") {
		if !slices.ContainsFunc(tb.Columns, func(c Column) bool { return c.Key == k }) {
			tb.Columns = append(tb.Columns, Column{Key: k})
		}
	}
	var row []Cell
	for _, c := range cells {
		switch c % 5 {
		case 0:
			row = append(row, S(s))
		case 1:
			row = append(row, F(x))
		case 2:
			row = append(row, I(n))
		case 3:
			row = append(row, F(x*math.Pow(10, float64(int(c>>4)-8))))
		case 4:
			row = append(row, S(string(rune(c>>3))))
		}
		if len(row) == len(tb.Columns) {
			tb.AddRow(row...)
			row = row[:0]
		}
	}
	return tb
}

// FuzzTableJSON: the direct row encoder emits exactly the bytes, and
// fails with exactly the error, of encoding/json over a map per row —
// HTML escaping, U+2028, invalid UTF-8, float formats either side of
// the 1e-6 and 1e21 cut-offs, signed zeros, integers and non-finite
// floats included.
func FuzzTableJSON(f *testing.F) {
	f.Add("Fig 5", "backend|size_mb|read_gbps|write_gbps", []byte{0, 1, 2, 3, 0, 1, 3, 3}, "node-local", 12.5, 8)
	f.Add("<b>&amp;</b>", "a|b|c", []byte{1, 0, 0, 2, 3, 4}, "x<y>&z", 1e-6, -3)
	f.Add("integers", "k|l|m", []byte{2, 2, 2, 4, 12, 20}, "\u2028    \"\n\t\x01\x7f", 9.999999e-7, -1<<63)
	f.Add("\xff\xfe bad utf-8", "\xff|é|<k>", []byte{0, 3, 19, 35, 51, 0}, "\xc3\x28 and \xe2\x82", 1e21, 1<<62)
	f.Add("", "", []byte{3, 6, 22, 38, 54, 70, 86, 102, 118, 134, 150}, "", 9.999999999999999e20, -1)
	f.Add("tiny", "f|g", []byte{1, 3, 4, 3}, "s", -1.2345e-7, 7)
	f.Add("nan", "f", []byte{1}, "s", math.NaN(), 0)
	f.Add("inf", "f|g", []byte{0, 1}, "s", math.Inf(-1), 0)
	f.Add("signed zero", "z|n|repeated|n", []byte{1, 2, 3}, "s", math.Copysign(0, -1), 0)
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
