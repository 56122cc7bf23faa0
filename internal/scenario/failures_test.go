package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"simaibench/internal/sweep"
)

func failingResult() *Result {
	return &Result{
		Scenario: "demo",
		Tables: []Table{{
			Title:   "Demo table",
			Columns: []Column{{Key: "x", Head: "x", HeadFmt: "%4s", CellFmt: "%4d"}},
			Cells:   []Cell{I(1), I(2)},
		}},
		Failures: FailuresFrom("demo/grid", []*sweep.CellError{
			{Index: 3, Err: errors.New("panic: saboteur")},
		}),
	}
}

// Failed cells must be explicit in every output format; healthy results
// must render byte-identically whether or not the failure path exists.
func TestReportersRenderFailedCells(t *testing.T) {
	res := failingResult()

	var text bytes.Buffer
	if err := (textReporter{}).Report(&text, []*Result{res}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FAILED cells — demo", "demo/grid[3]: panic: saboteur"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, text.String())
		}
	}

	var jsonBuf bytes.Buffer
	if err := (jsonReporter{}).Report(&jsonBuf, []*Result{res}); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Results []struct {
			Failures []CellFailure `json:"failures"`
		} `json:"results"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	f := decoded.Results[0].Failures
	if len(f) != 1 || f[0].Sweep != "demo/grid" || f[0].Cell != 3 {
		t.Fatalf("JSON failures = %+v", f)
	}

	var csvBuf bytes.Buffer
	if err := (csvReporter{}).Report(&csvBuf, []*Result{res}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), "demo,demo/grid,3,panic: saboteur") {
		t.Errorf("CSV output missing failure record:\n%s", csvBuf.String())
	}
}

// A result with no failures renders exactly as before the guardrails
// layer existed, in all three formats — the zero-cost contract.
func TestHealthyResultOutputUnchanged(t *testing.T) {
	res := failingResult()
	res.Failures = nil
	for _, format := range Formats() {
		r, err := NewReporter(format)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Report(&buf, []*Result{res}); err != nil {
			t.Fatal(err)
		}
		for _, forbidden := range []string{"FAILED", "failures", "failed_sweep"} {
			if strings.Contains(buf.String(), forbidden) {
				t.Errorf("%s output of a healthy result mentions %q:\n%s", format, forbidden, buf.String())
			}
		}
	}
}

// Guardrails maps the per-cell params onto the hardened runner's
// options, and merge propagates the new fields from defaults.
func TestParamsGuardrails(t *testing.T) {
	p := Params{TimeoutS: 2.5}
	opts := p.Guardrails()
	if opts.Timeout != 2500*time.Millisecond {
		t.Fatalf("Guardrails() = %+v", opts)
	}
	merged := Params{}.merge(Params{TimeoutS: 1, MaxEvents: 99})
	if merged.TimeoutS != 1 || merged.MaxEvents != 99 {
		t.Fatalf("merge dropped guardrail fields: %+v", merged)
	}
}
