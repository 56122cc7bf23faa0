package simaibench

import "simaibench/internal/des"

// Parallelism inside one cell. A simulated cell runs on one sequential
// event loop — measured fastest for every fig3/fig4/scale-out point up
// to 4096 nodes — and sweeps fan whole cells across cores. The one
// harness that also fans out inside a cell is gradsync, whose dragonfly
// groups share nothing during a run: ScenarioParams.Workers sets how
// many cores advance them. Metrics are bit-identical at every setting —
// Workers only trades wall-clock.

// SharedSimGuard is one event budget enforced jointly across the
// logical processes of a gradsync cell — the global form of
// SimGuard.MaxEvents, so a budget means the same count whether a cell
// runs on one core or many. Cells arm it automatically from
// ScenarioParams.MaxEvents.
type SharedSimGuard = des.SharedGuard

// NewSharedSimGuard returns a joint event budget of maxEvents (> 0)
// for the logical processes of one cell.
func NewSharedSimGuard(maxEvents int64) *SharedSimGuard {
	return des.NewSharedGuard(maxEvents)
}
