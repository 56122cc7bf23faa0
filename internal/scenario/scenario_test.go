package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func stub(name string) *Scenario {
	return New(name, "stub scenario "+name, Params{SweepIters: 600}, SweepIters,
		func(ctx context.Context, p Params) (*Result, error) {
			return &Result{Scenario: name, Params: p}, nil
		})
}

// resetRegistry isolates registry tests from the package-level state
// other tests (and real registrations) share.
func resetRegistry() {
	registry.Lock()
	defer registry.Unlock()
	registry.order = nil
	registry.byName = nil
	registry.groups = nil
	registry.gorder = nil
}

func TestRegisterDuplicatePanics(t *testing.T) {
	resetRegistry()
	defer resetRegistry()
	Register(stub("dup"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(stub("dup"))
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	resetRegistry()
	defer resetRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("empty-name registration did not panic")
		}
	}()
	Register(stub(""))
}

func TestGroupUnknownMemberPanics(t *testing.T) {
	resetRegistry()
	defer resetRegistry()
	Register(stub("a"))
	defer func() {
		if recover() == nil {
			t.Fatal("group with unregistered member did not panic")
		}
	}()
	RegisterGroup("g", "a", "missing")
}

func TestResolveOrderAndErrors(t *testing.T) {
	resetRegistry()
	defer resetRegistry()
	Register(stub("beta"))
	Register(stub("alpha"))
	RegisterGroup("both", "alpha", "beta")

	if got := Names(); got[0] != "beta" || got[1] != "alpha" {
		t.Fatalf("Names() = %v, want registration order", got)
	}
	ss, err := Resolve("both")
	if err != nil || len(ss) != 2 || ss[0].Name() != "alpha" || ss[1].Name() != "beta" {
		t.Fatalf("Resolve(both) = %v, %v", ss, err)
	}
	_, err = Resolve("nope")
	if err == nil {
		t.Fatal("Resolve of unknown id succeeded")
	}
	for _, want := range []string{"alpha", "beta", "both", `"nope"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

func TestDefaultsMergeIntoRun(t *testing.T) {
	var got Params
	s := New("m", "", Params{SweepIters: 600, TimeScale: 0.01}, SweepIters|TimeScale,
		func(ctx context.Context, p Params) (*Result, error) {
			got = p
			return &Result{Scenario: "m", Params: p}, nil
		})
	if _, err := s.Run(context.Background(), Params{TimeScale: 0.5}); err != nil {
		t.Fatal(err)
	}
	if got.SweepIters != 600 || got.TimeScale != 0.5 {
		t.Fatalf("merged params = %+v", got)
	}
}

func sampleResult() *Result {
	return &Result{
		Scenario: "sample",
		Tables: []Table{{
			Title: "Sample — a table",
			Columns: []Column{
				{Key: "backend", Head: "backend", HeadFmt: "%-12s", CellFmt: "%-12s"},
				{Key: "size_mb", Head: "size(MB)", HeadFmt: "%10s", CellFmt: "%10.2f"},
			},
			Cells: []Cell{S("redis"), F(0.4), S("dragon"), F(32)},
		}, {
			Title: "Sample — freeform",
			Text:  "ascii art\n",
		}},
	}
}

func TestTextReporterLayout(t *testing.T) {
	var buf bytes.Buffer
	r, err := NewReporter("text")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Report(&buf, []*Result{sampleResult()}); err != nil {
		t.Fatal(err)
	}
	want := "Sample — a table\n" +
		"backend        size(MB)\n" +
		"redis              0.40\n" +
		"dragon            32.00\n" +
		"\n" +
		"Sample — freeform\n" +
		"ascii art\n" +
		"\n"
	if buf.String() != want {
		t.Fatalf("text output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestJSONReporterRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	r, _ := NewReporter("json")
	if err := r.Report(&buf, []*Result{sampleResult()}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Scenario string `json:"scenario"`
			Tables   []struct {
				Title   string           `json:"title"`
				Columns []string         `json:"columns"`
				Rows    []map[string]any `json:"rows"`
				Text    string           `json:"text"`
			} `json:"tables"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Results) != 1 || doc.Results[0].Scenario != "sample" {
		t.Fatalf("bad doc: %+v", doc)
	}
	tb := doc.Results[0].Tables[0]
	if tb.Columns[0] != "backend" || tb.Rows[1]["size_mb"].(float64) != 32.0 {
		t.Fatalf("bad table records: %+v", tb)
	}
	if doc.Results[0].Tables[1].Text != "ascii art\n" {
		t.Fatalf("freeform text lost: %+v", doc.Results[0].Tables[1])
	}
}

func TestCSVReporter(t *testing.T) {
	var buf bytes.Buffer
	r, _ := NewReporter("csv")
	if err := r.Report(&buf, []*Result{sampleResult()}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), buf.String())
	}
	if lines[0] != "scenario,table,backend,size_mb" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "sample,Sample — a table,redis,0.4") {
		t.Fatalf("row = %q", lines[1])
	}
}

// raggedTable is a one-column table holding the row {1} after AddRow
// refused the ragged row {1, 2, 3}.
func raggedTable(t *testing.T) Table {
	t.Helper()
	tb := Table{Title: "ragged", Columns: []Column{{Key: "a", Head: "a", HeadFmt: "%s", CellFmt: "%v"}}}
	tb.AddRow(I(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AddRow of 3 cells for 1 column did not panic")
			}
		}()
		tb.AddRow(I(1), I(2), I(3))
	}()
	return tb
}

// TestCSVReporterRaggedRow: a refused ragged row leaves no record wider
// than the header in the CSV.
func TestCSVReporterRaggedRow(t *testing.T) {
	var buf bytes.Buffer
	r, _ := NewReporter("csv")
	res := &Result{Scenario: "r", Tables: []Table{raggedTable(t)}}
	if err := r.Report(&buf, []*Result{res}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || lines[0] != "scenario,table,a" || lines[1] != "r,ragged,1" {
		t.Fatalf("ragged CSV record wider than header:\n%s", buf.String())
	}
}

// TestJSONMarshalRaggedRow: a refused ragged row leaves one record of
// one key in the JSON.
func TestJSONMarshalRaggedRow(t *testing.T) {
	data, err := json.Marshal(raggedTable(t))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Rows) != 1 || doc.Rows[0]["a"].(float64) != 1 || len(doc.Rows[0]) != 1 {
		t.Fatalf("ragged row records = %v", doc.Rows)
	}
}

// TestAddRowRefusesRaggedRows: a row of more or fewer cells than
// columns panics, as an index out of range would, so every encoder may
// read the cells in strides of len(Columns).
func TestAddRowRefusesRaggedRows(t *testing.T) {
	tb := Table{Title: "ragged", Columns: []Column{{Key: "a"}, {Key: "b"}}}
	tb.AddRow(I(1), S("x"))
	for _, row := range [][]Cell{{I(2)}, {I(2), F(3), S("y")}, nil} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddRow of %d cells for 2 columns did not panic", len(row))
				}
			}()
			tb.AddRow(row...)
		}()
	}
	if want := []Cell{I(1), S("x")}; !slices.Equal(tb.Cells, want) {
		t.Fatalf("cells = %v, want %v", tb.Cells, want)
	}
}

// TestTableJSONRoundTrip: UnmarshalJSON gives back every cell, numbers
// as F, and refuses a record that lacks a column or holds a value no
// cell can.
func TestTableJSONRoundTrip(t *testing.T) {
	tb := Table{Title: "t", Columns: []Column{{Key: "n"}, {Key: "s"}, {Key: "x"}}}
	tb.AddRow(I(3), S("a<b"), F(0.25))
	tb.AddRow(I(-1), S(""), F(1e21))
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if want := []Cell{F(3), S("a<b"), F(0.25), F(-1), S(""), F(1e21)}; !slices.Equal(back.Cells, want) {
		t.Fatalf("decoded cells = %v, want %v", back.Cells, want)
	}
	if again, _ := json.Marshal(back); !bytes.Equal(again, data) {
		t.Fatalf("re-encoded\n%s\nwant\n%s", again, data)
	}
	for _, body := range []string{
		`{"title":"t","columns":["a","b"],"rows":[{"a":1}]}`,
		`{"title":"t","columns":["a"],"rows":[{"a":null}]}`,
		`{"title":"t","columns":["a"],"rows":[{"a":true}]}`,
	} {
		if err := json.Unmarshal([]byte(body), &back); err == nil {
			t.Errorf("%s decoded without an error", body)
		}
	}
}

func TestNewReporterUnknownFormat(t *testing.T) {
	if _, err := NewReporter("xml"); err == nil || !strings.Contains(err.Error(), "text") {
		t.Fatalf("want error naming valid formats, got %v", err)
	}
}
