package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The scenario table in EXPERIMENTS.md is generated by
// `go run ./cmd/experiments -list -format md` between the
// scenario-table markers. This test pins the committed copy to the
// registry, so the doc table and `-list` cannot drift apart again: when
// a scenario is added or its description changes, regenerate the block.
func TestExperimentsMDScenarioTableMatchesRegistry(t *testing.T) {
	const (
		begin = "<!-- scenario-table:begin"
		end   = "<!-- scenario-table:end -->"
	)
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(doc, []byte(begin))
	j := bytes.Index(doc, []byte(end))
	if i < 0 || j < 0 || j < i {
		t.Fatalf("EXPERIMENTS.md is missing the %q / %q markers", begin, end)
	}
	block := string(doc[i:j])
	// Drop the marker line itself; what remains is the generated table.
	if nl := strings.Index(block, "\n"); nl >= 0 {
		block = block[nl+1:]
	}
	block = strings.TrimSpace(block)
	want := strings.TrimSpace(scenarioTableMD())
	if block != want {
		t.Fatalf("EXPERIMENTS.md scenario table drifted from the registry.\n"+
			"Regenerate with: go run ./cmd/experiments -list -format md\n--- doc ---\n%s\n--- registry ---\n%s",
			block, want)
	}
}

// printList must cover every registered scenario and group, so -list
// stays the discovery surface the docs promise.
func TestPrintListCoversRegistry(t *testing.T) {
	var buf bytes.Buffer
	printList(&buf)
	out := buf.String()
	for _, want := range []string{"table2", "fig6", "streaming", "ablation", "scale-out", "all"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

// The CLI error paths, driven through realMain so the asserted exit
// codes and stderr diagnostics are exactly what the process reports.

func TestRealMainUnknownScenario(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := realMain(context.Background(), []string{"-exp", "not-a-scenario"}, &out, &errBuf); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "not-a-scenario") {
		t.Errorf("stderr does not name the unknown scenario:\n%s", errBuf.String())
	}
	if out.Len() != 0 {
		t.Errorf("stdout not empty on resolve failure:\n%s", out.String())
	}
}

func TestRealMainUnwritableOutput(t *testing.T) {
	// A bad -o path must fail before any sweep runs, with exit 1.
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out.csv")
	var out, errBuf bytes.Buffer
	if code := realMain(context.Background(), []string{"-exp", "fig5", "-o", bad}, &out, &errBuf); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "no-such-dir") {
		t.Errorf("stderr does not name the unwritable path:\n%s", errBuf.String())
	}
}

func TestRealMainBadFlag(t *testing.T) {
	// -retries was a flag until nothing could trigger a retry, and
	// -workers until no cell ran on more than one core.
	for _, args := range [][]string{{"-definitely-not-a-flag"}, {"-retries", "1"}, {"-exp", "gradsync", "-workers", "2"}} {
		var out, errBuf bytes.Buffer
		if code := realMain(context.Background(), args, &out, &errBuf); code != 2 {
			t.Fatalf("%v: exit code = %d, want 2 for a flag-parse failure", args, code)
		}
	}
}

// A knob that is accepted is acted on: a negative or non-finite value,
// which the scenarios used to replace with their default grid and exit
// 0, is refused before anything runs, naming the flag.
func TestRealMainRejectsBadKnobs(t *testing.T) {
	for _, tc := range []struct{ exp, flag, value string }{
		{"campaign", "-rate", "-1"}, {"campaign", "-rate", "NaN"}, {"campaign", "-jobs", "-5"},
		{"scale-out", "-tenants", "-3"}, {"resilience", "-mtbf", "-1"}, {"resilience", "-ckpt", "NaN"},
		{"fig3", "-sweep-iters", "-5"}, {"fig3", "-timeout", "-3"}, {"fig3", "-parallel", "-4"},
		{"gradsync", "-sweep-iters", "-2"}, {"table2", "-train-iters", "-1"}, {"table2", "-time-scale", "+Inf"},
		{"fig5", "-max-events", "-7"},
		{"campaign", "-policy", "lottery"}, {"gradsync", "-collalgo", "star"}, {"table2", "-clock", "sundial"},
	} {
		var out, errBuf bytes.Buffer
		code := realMain(context.Background(), []string{"-exp", tc.exp, tc.flag, tc.value}, &out, &errBuf)
		if code != 1 || !strings.Contains(errBuf.String(), tc.flag+" ") || out.Len() != 0 {
			t.Errorf("-exp %s %s %s: exit %d, stdout %d bytes, stderr %q; want exit 1 naming the flag and no output",
				tc.exp, tc.flag, tc.value, code, out.Len(), errBuf.String())
		}
	}
}

// An unknown id of an enum knob is refused before any cell runs, naming
// the flag and the valid ids: a cell given it could only fail.
func TestRealMainRejectsUnknownIDs(t *testing.T) {
	for _, tc := range []struct{ exp, flag, value, valid string }{
		{"campaign", "-policy", "lottery", "fifo, edf, srpt, hermod"},
		{"gradsync", "-collalgo", "star", "flat, ring, tree, hier"},
		{"streaming", "-clock", "sundial", "virtual, wall"},
	} {
		var out, errBuf bytes.Buffer
		code := realMain(context.Background(), []string{"-exp", tc.exp, tc.flag, tc.value}, &out, &errBuf)
		if code != 1 || !strings.Contains(errBuf.String(), tc.flag+" ") || !strings.Contains(errBuf.String(), tc.valid) ||
			strings.Contains(errBuf.String(), "running") || out.Len() != 0 {
			t.Errorf("-exp %s %s %s: exit %d, stdout %d bytes, stderr %q; want exit 1 naming the flag and %q before anything runs",
				tc.exp, tc.flag, tc.value, code, out.Len(), errBuf.String(), tc.valid)
		}
	}
}

// A knob flag set explicitly that none of the resolved scenarios reads
// changes nothing, so it is refused before anything runs, naming the
// flag and the scenarios; a flag any member of a group reads passes.
func TestRealMainRefusesUnreadKnobs(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		names string
	}{
		{[]string{"-exp", "fig3", "-policy", "edf"}, "fig3"},
		{[]string{"-exp", "all", "-tenants", "4"}, "table2, table3, fig2, fig3, fig4, fig5, fig6"},
		{[]string{"-exp", "fig5", "-sweep-iters", "600"}, "fig5"}, // even at the CLI default
		{[]string{"-exp", "table2", "-collalgo", "ring"}, "table2"},
	} {
		args := tc.args
		var out, errBuf bytes.Buffer
		code := realMain(context.Background(), args, &out, &errBuf)
		if code != 1 || !strings.Contains(errBuf.String(), args[2]+" is read by none of "+tc.names) ||
			strings.Contains(errBuf.String(), "running") || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %d bytes, stderr %q; want exit 1 naming the flag and the scenario",
				args, code, out.Len(), errBuf.String())
		}
	}
	var out, errBuf bytes.Buffer
	args := []string{"-exp", "all", "-sweep-iters", "20", "-train-iters", "40", "-o", filepath.Join(t.TempDir(), "all.txt")}
	if code := realMain(context.Background(), args, &out, &errBuf); code != 0 {
		t.Errorf("%v: exit %d, want 0 (each flag is read by a member)\nstderr:\n%s", args, code, errBuf.String())
	}
}

func TestRealMainCancelledContext(t *testing.T) {
	// A context cancelled mid-sweep (here: before it) aborts the run with
	// exit 1 and a diagnosis naming the scenario.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errBuf bytes.Buffer
	if code := realMain(ctx, []string{"-exp", "fig5"}, &out, &errBuf); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "fig5") || !strings.Contains(errBuf.String(), "context canceled") {
		t.Errorf("stderr does not diagnose the cancellation:\n%s", errBuf.String())
	}
}

// A run whose guardrails catch failed cells writes the partial artifact,
// summarizes every failed cell on stderr, and exits nonzero — a partial
// result must never look like a complete one to a script.
func TestRealMainPartialResultsExitNonzero(t *testing.T) {
	for _, tc := range []struct {
		exp  string
		args []string
		want []string
	}{
		{"fig5", []string{"-max-events", "10"}, []string{"event budget exceeded", "fig5["}},
		// Fewer iterations than one read period used to print 36 rows of
		// zeros and exit 0.
		{"fig6", []string{"-sweep-iters", "5"}, []string{"TrainIters = 5", "ReadPeriod = 10", "fig6/8-nodes["}},
	} {
		outPath := filepath.Join(t.TempDir(), tc.exp+".txt")
		var out, errBuf bytes.Buffer
		code := realMain(context.Background(),
			append([]string{"-exp", tc.exp, "-o", outPath}, tc.args...), &out, &errBuf)
		if code != 1 {
			t.Fatalf("%s: exit code = %d, want 1 with failed cells\nstderr:\n%s", tc.exp, code, errBuf.String())
		}
		for _, want := range append(tc.want, "sweep cell(s) failed") {
			if !strings.Contains(errBuf.String(), want) {
				t.Errorf("%s: stderr missing %q:\n%s", tc.exp, want, errBuf.String())
			}
		}
		artifact, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatalf("%s: partial artifact was not written: %v", tc.exp, err)
		}
		if !strings.Contains(string(artifact), "FAILED cells — "+tc.exp) {
			t.Errorf("%s: artifact does not render the failed cells:\n%s", tc.exp, artifact)
		}
	}
}

// The guardrail flags land in the scenario params verbatim: a healthy
// run under generous guardrails exits 0 with byte-identical output.
func TestRealMainGuardrailFlagsZeroCost(t *testing.T) {
	run := func(extra ...string) string {
		args := append([]string{"-exp", "fig5", "-format", "csv"}, extra...)
		var out, errBuf bytes.Buffer
		if code := realMain(context.Background(), args, &out, &errBuf); code != 0 {
			t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, errBuf.String())
		}
		return out.String()
	}
	plain := run()
	guarded := run("-timeout", "600", "-max-events", "1000000000")
	if plain != guarded {
		t.Errorf("output differs with guardrail flags set\n--- plain ---\n%s\n--- guarded ---\n%s", plain, guarded)
	}
}

func TestScenarioTableMDShape(t *testing.T) {
	md := scenarioTableMD()
	lines := strings.Split(strings.TrimSpace(md), "\n")
	if len(lines) < 3 {
		t.Fatalf("markdown table too short:\n%s", md)
	}
	if lines[0] != "| id | description | knobs |" || lines[1] != "|---|---|---|" {
		t.Fatalf("markdown header malformed:\n%s", md)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "|") || !strings.HasSuffix(l, "|") {
			t.Errorf("not a table row: %q", l)
		}
	}
	if !strings.Contains(md, "| `scale-out` |") || !strings.Contains(md, "`tenants`") {
		t.Errorf("scale-out missing from markdown table:\n%s", md)
	}
	if !strings.Contains(md, "| `all` (group) |") {
		t.Errorf("all group missing from markdown table:\n%s", md)
	}
}
