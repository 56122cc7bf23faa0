package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"simaibench/internal/des"
	"simaibench/internal/scenario"
	"simaibench/internal/sweep"
)

// TestEncodeRunResponseMatchesEncodingJSON: the one-pass body encoder
// returns exactly json.Marshal of the RunResponse plus a newline, byte
// for byte, or fails exactly when it does, with the same error text —
// the cached body and the CLI's encoding/json record stay one format.
func TestEncodeRunResponseMatchesEncodingJSON(t *testing.T) {
	fig5 := scenario.Table{
		Title: "Fig 5 — Pattern 2, 2 nodes",
		Columns: []scenario.Column{
			{Key: "backend"}, {Key: "size_mb"}, {Key: "read_gbps"}, {Key: "write_gbps"},
		},
		Cells: []scenario.Cell{
			scenario.S("redis"), scenario.F(0.4), scenario.F(0.12345678901234), scenario.F(1.5e-7),
			scenario.S("filesystem"), scenario.F(128), scenario.F(3), scenario.F(2.5e21),
		},
	}
	budget := &des.BudgetExceeded{Guard: des.Guard{MaxEvents: 10}, Events: 10, Now: 0.25}
	withNumber := func(v float64) []scenario.Table {
		return []scenario.Table{{Title: "t", Columns: []scenario.Column{{Key: "a"}, {Key: "b"}},
			Cells: []scenario.Cell{scenario.I(1), scenario.F(v)}}}
	}
	for _, c := range []struct {
		name string
		res  *scenario.Result
	}{
		{"healthy", &scenario.Result{Scenario: "fig5", Params: scenario.Params{Transfers: 20, TimeoutS: 120},
			Tables: []scenario.Table{fig5}}},
		{"failures", &scenario.Result{Scenario: "scale-out", Params: scenario.Params{MaxEvents: 10},
			Tables: []scenario.Table{fig5},
			Failures: []scenario.CellFailure{
				{Sweep: "scale-out/redis", Cell: 3, Error: budget.Error(), Err: &sweep.CellError{Index: 3, Err: budget}},
				{Sweep: "scale-out/<dragon>", Cell: 0, Error: "panic: \"boom\" & more", Err: &sweep.PanicError{Value: "boom"}},
				{Sweep: "scale-out/fs", Cell: 12, Error: "cell timed out", Err: sweep.ErrCellTimeout},
				{Sweep: "décodé", Cell: 1, Error: "hand-built record\n"}, // no Err: internal
			}}},
		{"freeform text", &scenario.Result{Scenario: "fig2", Tables: []scenario.Table{
			{Title: "Fig 2 — timeline", Text: "sim  |####  ..|\n\ttrain \"quoted\" \\ <b> \n"}}}},
		{"nil tables", &scenario.Result{Scenario: "empty"}},
		{"empty tables", &scenario.Result{Scenario: "empty", Tables: []scenario.Table{}}},
		{"empty failures", &scenario.Result{Scenario: "x", Tables: []scenario.Table{fig5}, Failures: []scenario.CellFailure{}}},
		{"nil result", nil},
		{"NaN cell", &scenario.Result{Scenario: "nan", Tables: withNumber(math.NaN())}},
		{"+Inf cell", &scenario.Result{Scenario: "inf", Tables: withNumber(math.Inf(1))}},
		{"-Inf cell", &scenario.Result{Scenario: "inf", Tables: withNumber(math.Inf(-1))}},
		{"escaping", &scenario.Result{Scenario: "<script>&amp;</script>", Params: scenario.Params{Policy: "<edf>&", Clock: "virtuél"},
			Tables: []scenario.Table{{
				Title:   "a < b && c > d — ünïcödé   \xff",
				Columns: []scenario.Column{{Key: "lt<"}, {Key: "gt>"}, {Key: "amp&"}, {Key: "é"}, {Key: "plain"}},
				Cells: []scenario.Cell{
					scenario.S("1<2"), scenario.S("2>1"), scenario.S("a&b"), scenario.S("naïve\u2028"), scenario.F(1e-7),
					scenario.S("\xff bad"), scenario.I(-1), scenario.F(math.Copysign(0, -1)), scenario.S(""), scenario.I(math.MaxInt64),
				},
			}}}},
		{"integer string and float cells", &scenario.Result{Scenario: "gradsync", Tables: []scenario.Table{
			{Title: "mixed", Columns: []scenario.Column{{Key: "ranks"}, {Key: "best"}, {Key: "coll_ms"}, {Key: "algo"}},
				Cells: []scenario.Cell{
					scenario.I(512), scenario.S("hier"), scenario.F(0.0123), scenario.S("ring"),
					scenario.I(0), scenario.S("tree"), scenario.F(1e21), scenario.S("flat"),
				}},
			fig5,
		}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp := RunResponse{Key: "0123abcd<&>", Scenario: "fig5", Result: c.res}
			if c.res != nil {
				for _, f := range c.res.Failures {
					resp.FailureKinds = append(resp.FailureKinds, cellFailureKind(f))
				}
			}
			want, wantErr := json.Marshal(resp)
			got, gotErr := encodeRunResponse(resp.Scenario, resp.Key, c.res)
			if wantErr != nil {
				if gotErr == nil || gotErr.Error() != "encoding result: "+wantErr.Error() {
					t.Fatalf("error %v, encoding/json says %v", gotErr, wantErr)
				}
				var me *json.MarshalerError
				if !errors.As(gotErr, &me) {
					t.Fatalf("error %v does not wrap a *json.MarshalerError", gotErr)
				}
				return
			}
			if gotErr != nil {
				t.Fatalf("error %v, encoding/json encodes it", gotErr)
			}
			if want = append(want, '\n'); !bytes.Equal(got, want) {
				t.Fatalf("encoded\n%s\nencoding/json gives\n%s", got, want)
			}
		})
	}
}
