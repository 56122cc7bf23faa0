package simaibench

import (
	"context"

	"simaibench/internal/experiments"
)

// OneToOneConfig configures one run of the paper's first workload on
// the real stack: a co-located solver and trainer staging snapshots
// through Backend, the trainer steering the solver to stop after
// TrainIters iterations. Every count, ArrayBytes and TimeScale must be
// set; Clock is "virtual" (the default: deterministic, as fast as the
// real compute allows) or "wall" (the genuine real-time emulation).
type OneToOneConfig = experiments.OneToOneConfig

// RunOneToOne deploys the backend, runs both components to completion
// and returns their reports (Sim, Train), the recorded Timeline and the
// makespan in emulated seconds — the loop behind the table2/table3/fig2
// scenarios and the simaibench CLI (see examples/nekrs-ml). A value
// that would hang or stage nothing is an error naming the field; so is
// a backend that dies mid-run.
func RunOneToOne(ctx context.Context, cfg OneToOneConfig) (experiments.OneToOneResult, error) {
	return experiments.RunOneToOne(ctx, cfg)
}
