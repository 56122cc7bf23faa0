// Command experiments runs the registered scenarios that regenerate the
// tables and figures of the paper's evaluation section, plus this
// reproduction's extensions. Scenarios live in a registry (see
// internal/scenario); discover them with
//
//	experiments -list
//
// and run one (or a group like "all", the paper's core artifacts) with
//
//	experiments -exp fig3                 # paper-identical text tables
//	experiments -exp fig3 -format json    # machine-readable per-point records
//	experiments -exp all -format csv -o results.csv
//
// The validation scenarios (table2, table3, fig2) and the streaming
// extension run in real mode: actual data movement on this machine. By
// default they pad on a deterministic virtual clock (-clock virtual)
// and complete at DES speed with bit-reproducible output; -clock wall
// restores the genuine time-compressed real-time emulation. The scale
// scenarios run on the simulated Aurora cluster either way. Progress
// goes to stderr so -format json|csv output stays parseable.
//
// -timeout and -max-events arm the run guardrails on every sweep cell
// (per-cell deadline, DES event budget); a failed cell becomes a
// structured, rendered failure instead of aborting the campaign, and the
// process exits nonzero so a partial artifact can never pass as
// complete. See EXPERIMENTS.md for paper-vs-measured, the exit-code
// contract and how to add a new scenario.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"simaibench/internal/experiments" // registers the paper's scenarios
	"simaibench/internal/scenario"
	"simaibench/internal/sigctx"
	"simaibench/internal/sweep"
)

func main() {
	os.Exit(realMain(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable CLI body: it parses args, runs the selected
// scenarios and returns the process exit code. Exit 0 means every cell of
// every scenario completed; a run whose guardrails caught failed cells
// still writes its (partial) artifacts but exits nonzero with a per-cell
// summary on stderr, so scripted campaigns cannot mistake a partial
// result for a complete one. Exit 2 is flag-parse failure.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id or group (see -list)")
	list := fs.Bool("list", false, "list registered scenarios and groups, then exit (-format md emits the EXPERIMENTS.md table)")
	format := fs.String("format", "text", "output format: text|json|csv (with -list: text|md)")
	out := fs.String("o", "", "write output to FILE (default stdout)")
	var params scenario.Params
	scenario.BindFlags(fs, &params)
	parallel := fs.Int("parallel", 0, "sweep worker count (0 = all cores, 1 = serial); results are identical at any setting")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *parallel < 0 {
		fmt.Fprintf(stderr, "experiments: -parallel is %d: must not be negative\n", *parallel)
		return 1
	}
	sweep.Workers = *parallel
	if *list {
		// -o applies to -list too, so `-list -format md -o FILE` can
		// regenerate the EXPERIMENTS.md table block directly. The list
		// is rendered in memory first so a write failure (ENOSPC,
		// closed pipe) cannot leave a truncated file with exit 0.
		var buf bytes.Buffer
		switch *format {
		case "md":
			buf.WriteString(scenarioTableMD())
		case "text":
			printList(&buf)
		default:
			fmt.Fprintf(stderr, "experiments: unknown -list format %q (valid: text, md)\n", *format)
			return 1
		}
		if err := writeOut(*out, stdout, buf.Bytes()); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		return 0
	}
	if params.Workers == 1 {
		// Only record an explicit request: Workers stays zero at the
		// default so workers=1 artifacts (JSON params included) remain
		// byte-identical to pre-knob output.
		params.Workers = 0
	}
	if err := params.Validate(); err != nil {
		fmt.Fprintln(stderr, "experiments:", flagError(err))
		return 1
	}
	scenarios, err := scenario.Resolve(*exp)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	// A flag none of the resolved scenarios reads would change nothing:
	// refuse it rather than let e.g. a mistyped -exp pass as the run the
	// flag was meant for.
	if err := scenario.CheckReads(scenario.FlagKnobs(fs), scenarios...); err != nil {
		fmt.Fprintln(stderr, "experiments:", flagError(err))
		return 1
	}
	failedCells, err := run(ctx, scenarios, *format, *out, params, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	if failedCells > 0 {
		fmt.Fprintf(stderr, "experiments: %d sweep cell(s) failed; partial results were written\n", failedCells)
		return 1
	}
	return 0
}

// flagError names the flag that set the knob a scenario.KnobError is
// about.
func flagError(err error) string {
	var ke *scenario.KnobError
	if errors.As(err, &ke) && ke.Flag != "" {
		return "-" + ke.Flag + " " + ke.Detail
	}
	return err.Error()
}

// printList enumerates the registry: every scenario id with its
// description and the knobs it reads, then the runnable groups.
func printList(w io.Writer) {
	fmt.Fprintln(w, "Scenarios:")
	for _, s := range scenario.All() {
		fmt.Fprintf(w, "  %-10s %s\n  %-10s knobs: %s\n", s.Name(), s.Description(), "", knobsText(s.Reads(), "", " "))
	}
	fmt.Fprintln(w, "Groups:")
	for _, g := range scenario.Groups() {
		members, _ := scenario.Resolve(g)
		fmt.Fprintf(w, "  %-10s", g)
		for i, m := range members {
			if i > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprint(w, m.Name())
		}
		fmt.Fprintln(w)
	}
}

// scenarioTableMD renders the registry as the markdown table embedded in
// EXPERIMENTS.md (between the scenario-table markers). The doc table is
// generated from the registry — and a test pins the EXPERIMENTS.md copy
// to this output — so the CLI's -list and the documentation cannot
// diverge. A group's knobs are those any of its members reads.
func scenarioTableMD() string {
	var b strings.Builder
	b.WriteString("| id | description | knobs |\n|---|---|---|\n")
	for _, s := range scenario.All() {
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", s.Name(), s.Description(), knobsMD(s.Reads()))
	}
	for _, g := range scenario.Groups() {
		members, _ := scenario.Resolve(g)
		names := make([]string, len(members))
		var reads scenario.Knob
		for i, m := range members {
			names[i] = m.Name()
			reads |= m.Reads()
		}
		fmt.Fprintf(&b, "| `%s` (group) | %s | %s |\n", g, strings.Join(names, " "), knobsMD(reads))
	}
	return b.String()
}

// knobsMD renders a knob set as code spans.
func knobsMD(k scenario.Knob) string { return knobsText(k, "`", " ") }

// knobsText renders a knob set, each key quoted by q: the knobs that bear
// on the result, then those that only bound or speed up the run.
func knobsText(k scenario.Knob, q, sep string) string {
	join := func(k scenario.Knob) string { return q + strings.Join(k.Keys(), q+sep+q) + q }
	s := join(k.Results())
	if rest := k &^ k.Results(); rest != 0 {
		s += " · run control: " + join(rest)
	}
	return s
}

// writeOut writes data to path, or to stdout when path is empty,
// reporting any write error.
func writeOut(path string, stdout io.Writer, data []byte) error {
	if path == "" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// run executes the resolved scenarios and reports them. It returns the
// number of sweep cells the guardrails caught failing (the scenarios
// still completed around them — their partial artifacts are written) and
// the first hard error, if any.
func run(ctx context.Context, scenarios []*scenario.Scenario, format, outPath string, params scenario.Params,
	stdout, stderr io.Writer) (failedCells int, _ error) {
	reporter, err := scenario.NewReporter(format)
	if err != nil {
		return 0, err
	}

	// Open the output first so a bad -o path fails before minutes of
	// sweeps, not after.
	w := stdout
	var outFile *os.File
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return 0, err
		}
		outFile = f
		w = f
	}

	// Ctrl-C cancels the in-flight scenario instead of killing the
	// process mid-write; sigctx restores default signal handling as soon
	// as the first interrupt lands, so a second Ctrl-C kills outright.
	sigCtx, stop := sigctx.WithSignals(ctx)
	defer stop()

	// Scenarios sharing this run share one validation measurement per
	// configuration (table2/table3/fig2 in -exp all).
	ctx = experiments.WithValidationCache(sigCtx)

	var results []*scenario.Result
	var runErr error
	for _, s := range scenarios {
		fmt.Fprintf(stderr, "running %s (%s)...\n", s.Name(), s.Description())
		res, err := s.Run(ctx, params)
		if err != nil {
			runErr = fmt.Errorf("%s: %w", s.Name(), err)
			break
		}
		results = append(results, res)
	}

	// Report whatever completed even when a later scenario failed or was
	// cancelled: minutes of finished sweeps should never be discarded.
	// Cells that failed under the guardrails are summarized on stderr in
	// addition to the reporter's own rendering, so the diagnosis survives
	// even when -o sends the artifacts to a file.
	if len(results) > 0 {
		if err := reporter.Report(w, results); err != nil {
			if runErr == nil {
				runErr = err
			}
			return failedCells, runErr
		}
		if runErr != nil {
			fmt.Fprintln(stderr, "experiments: reported partial results:", runErr)
		}
		for _, res := range results {
			for _, f := range res.Failures {
				fmt.Fprintf(stderr, "experiments: %s: %s[%d] failed: %s\n",
					res.Scenario, f.Sweep, f.Cell, f.Error)
				failedCells++
			}
		}
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	return failedCells, runErr
}
