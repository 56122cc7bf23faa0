package simaibench

import (
	"context"

	"simaibench/internal/experiments"
)

// OneToOneConfig configures one run of the paper's coupled workflows on
// the real stack: solvers and a trainer staging snapshots through
// Backend, the trainer steering the solvers to stop after TrainIters
// iterations. Ensemble 0 or 1 is the first workload, one co-located
// solver; above 1 it is the second, an ensemble whose trainer blocks
// each read period until every member has staged a new snapshot. Every
// count, ArrayBytes and TimeScale must be set; Clock is "virtual" (the
// default: deterministic, as fast as the real compute allows) or "wall"
// (the genuine real-time emulation; an ensemble with more components
// than cores runs slower than it pads to, see Ensemble).
type OneToOneConfig = experiments.OneToOneConfig

// RunOneToOne deploys the backend, runs every component to completion
// and returns their reports (Sim, member 0's for an ensemble, and
// Train), the recorded Timeline and the makespan in emulated seconds —
// the loop behind the table2/table3/fig2 scenarios and the simaibench
// CLI (see examples/nekrs-ml and examples/ensemble-surrogate). A value
// that would hang or stage nothing is an error naming the field; so is
// a backend that dies mid-run.
func RunOneToOne(ctx context.Context, cfg OneToOneConfig) (experiments.OneToOneResult, error) {
	return experiments.RunOneToOne(ctx, cfg)
}
