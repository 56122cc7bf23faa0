package simaibench

import (
	"context"
	"fmt"
	"io"

	_ "simaibench/internal/experiments" // registers the paper's scenarios
	"simaibench/internal/scenario"
)

// The scenario registry: every experiment of the paper's evaluation
// (and this reproduction's extensions — scale-out, resilience, campaign,
// gradsync, streaming, the ablations) is a named scenario, and
// RunScenario is the one way in. Library users run the same code path
// as `cmd/experiments` (`experiments -list` enumerates the names):
//
//	res, _ := simaibench.RunScenario(ctx, "fig3",
//		simaibench.ScenarioParams{SweepIters: 100})
//	_ = simaibench.ReportResults(os.Stdout, "json", res)

// ScenarioParams are the shared runtime knobs; zero fields fall back to
// each scenario's paper defaults.
type ScenarioParams = scenario.Params

// RunScenario resolves and runs a single scenario by name with the
// given params. The result is tables of named-column records plus the
// cells the run guardrails (ScenarioParams.TimeoutS, MaxEvents) caught
// as Failures.
func RunScenario(ctx context.Context, name string, p ScenarioParams) (*scenario.Result, error) {
	ss, err := scenario.Resolve(name)
	if err != nil {
		return nil, err
	}
	if len(ss) != 1 {
		return nil, fmt.Errorf("simaibench: %s is a scenario group; run its members by name", name)
	}
	return ss[0].Run(ctx, p)
}

// ReportResults renders results in the given format ("text", "json" or
// "csv") — the same reporters behind the CLI's -format flag.
func ReportResults(w io.Writer, format string, results ...*scenario.Result) error {
	r, err := scenario.NewReporter(format)
	if err != nil {
		return err
	}
	return r.Report(w, results)
}
