package experiments

import (
	"context"

	"simaibench/internal/des"
	"simaibench/internal/scenario"
	"simaibench/internal/sweep"
)

// This file wires the run guardrails into the experiment harnesses. Each
// scenario sweep runs on the hardened sweep runner (panic isolation,
// per-cell deadline — see internal/sweep/report.go), and each simulated
// cell's des.Env carries the per-cell event budget from Params.MaxEvents.
// A cell that panics, hangs or blows its budget becomes a structured
// scenario.CellFailure while the rest of the grid completes; with no
// guardrail params set, every path below is the exact pre-existing
// behavior (the zero Options run cells inline, and an unset budget leaves
// the env unguarded).

// newGuardedEnv builds the DES environment for one sweep cell, applying
// the per-cell event budget (0 = unguarded, the zero-cost default).
func newGuardedEnv(maxEvents int64) *des.Env {
	env := des.NewEnv()
	if maxEvents > 0 {
		env.SetGuard(des.Guard{MaxEvents: maxEvents})
	}
	if onCellEnv != nil {
		onCellEnv(env)
	}
	return env
}

// onCellEnv, when set, is handed every cell's environment as it is
// built. It is the event census's way in (TestEventCensus reads
// Env.Executed from each after the scenario returns); nothing outside
// tests sets it, and sweeps call it from worker goroutines.
var onCellEnv func(*des.Env)

// guardedGrid runs one scenario sweep grid (row-major xs × ys) under the
// params' guardrails, returning the completed points plus the failed
// cells as reportable records. Cancellation of ctx is the only error:
// cell failures are data, not reasons to abort the scenario.
func guardedGrid[X, Y, T any](ctx context.Context, p scenario.Params, label string,
	xs []X, ys []Y, f func(x X, y Y) (T, error)) ([]T, []scenario.CellFailure, error) {
	rep := sweep.RunGrid(ctx, xs, ys, p.Guardrails(),
		func(_ context.Context, x X, y Y) (T, error) { return f(x, y) })
	if rep.CtxErr != nil {
		return nil, nil, rep.CtxErr
	}
	return rep.Completed(), scenario.FailuresFrom(label, rep.Failures), nil
}
