package experiments

import (
	"context"

	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/scenario"
)

// Ablations probe the cost-model mechanisms behind the paper's three
// headline effects, varying one design constant at a time:
//
//   - the Lustre MDS service time (behind the 512-node file-system
//     collapse of Fig 3b/4d),
//   - the per-process cache share (behind the 32 MB in-memory dip of
//     Fig 3),
//   - the Dragon incast latency (behind the small-message many-to-one
//     gap of Fig 6b).
//
// They answer "is the claimed mechanism actually what produces the
// effect in this model?" — if an ablated constant removes the effect,
// the mechanism attribution holds.

// MDSAblationPoint is one (service time, nodes) file-system measurement.
type MDSAblationPoint struct {
	MDSServiceS float64
	Nodes       int
	WriteMeanS  float64
}

// mdsAblationGrid sweeps the MDS service time at both Fig 3 scales,
// measuring the Pattern 1 file-system write time at 8 MB.
func mdsAblationGrid(ctx context.Context, p scenario.Params, services []float64) ([]MDSAblationPoint, []scenario.CellFailure, error) {
	return guardedGrid(ctx, p, "ablation/mds", services, []int{8, 512},
		func(svc float64, nodes int) (MDSAblationPoint, error) {
			params := costmodel.Default()
			params.LustreMDSServiceS = svc
			pt, err := RunPattern1Checked(Pattern1Config{
				Nodes: nodes, Backend: datastore.FileSystem, SizeMB: 8,
				TrainIters: p.SweepIters, MaxEvents: p.MaxEvents, Params: &params,
			})
			if err != nil {
				return MDSAblationPoint{}, err
			}
			return MDSAblationPoint{MDSServiceS: svc, Nodes: nodes, WriteMeanS: pt.WriteMean}, nil
		})
}

// mdsAblationTable structures the sweep for the reporters.
func mdsAblationTable(points []MDSAblationPoint) scenario.Table {
	t := scenario.Table{
		Title: "Ablation — Lustre MDS service time vs FS write latency (Pattern 1, 8 MB)",
		Columns: []scenario.Column{
			{Key: "mds_svc_ms", Head: "mds-svc(ms)", HeadFmt: "%14s", CellFmt: "%14.2f"},
			{Key: "nodes", Head: "nodes", HeadFmt: "%8s", CellFmt: "%8d"},
			{Key: "write_mean_s", Head: "write-mean(s)", HeadFmt: "%14s", CellFmt: "%14.4f"},
		},
	}
	for _, pt := range points {
		t.Rows = append(t.Rows, []any{pt.MDSServiceS * 1000, pt.Nodes, pt.WriteMeanS})
	}
	return t
}

// CacheAblationPoint is one (cache share, size) node-local measurement.
type CacheAblationPoint struct {
	CacheShareMB float64
	SizeMB       float64
	WriteGBps    float64
}

// cacheAblationGrid sweeps the per-process cache share and measures the
// node-local write throughput profile across the Fig 3 sizes.
func cacheAblationGrid(ctx context.Context, p scenario.Params, shares []float64) ([]CacheAblationPoint, []scenario.CellFailure, error) {
	return guardedGrid(ctx, p, "ablation/cache", shares, Fig3Sizes,
		func(share, size float64) (CacheAblationPoint, error) {
			params := costmodel.Default()
			params.CacheShareMB = share
			pt, err := RunPattern1Checked(Pattern1Config{
				Nodes: 8, Backend: datastore.NodeLocal, SizeMB: size,
				TrainIters: p.SweepIters, MaxEvents: p.MaxEvents, Params: &params,
			})
			if err != nil {
				return CacheAblationPoint{}, err
			}
			return CacheAblationPoint{CacheShareMB: share, SizeMB: size, WriteGBps: pt.WriteGBps}, nil
		})
}

// cacheAblationTable structures the sweep for the reporters.
func cacheAblationTable(points []CacheAblationPoint) scenario.Table {
	t := scenario.Table{
		Title: "Ablation — per-process L3 share vs node-local throughput profile (Pattern 1, 8 nodes)",
		Columns: []scenario.Column{
			{Key: "share_mb", Head: "share(MB)", HeadFmt: "%14s", CellFmt: "%14.1f"},
			{Key: "size_mb", Head: "size(MB)", HeadFmt: "%10s", CellFmt: "%10.2f"},
			{Key: "write_gbps", Head: "write(GB/s)", HeadFmt: "%14s", CellFmt: "%14.3f"},
		},
	}
	for _, pt := range points {
		t.Rows = append(t.Rows, []any{pt.CacheShareMB, pt.SizeMB, pt.WriteGBps})
	}
	return t
}

// IncastAblationPoint is one (incast latency, size) Pattern 2 comparison.
type IncastAblationPoint struct {
	IncastLatencyS float64
	SizeMB         float64
	DragonFetchS   float64
	FSFetchS       float64
}

// incastAblationGrid sweeps Dragon's per-message incast latency at 128
// nodes, comparing the trainer's ensemble-fetch time against the file
// system's. With the latency ablated to ~zero, Dragon's point-to-point
// advantage should reassert itself at small messages.
func incastAblationGrid(ctx context.Context, p scenario.Params, latencies []float64) ([]IncastAblationPoint, []scenario.CellFailure, error) {
	return guardedGrid(ctx, p, "ablation/incast", latencies, []float64{1, 10, 128},
		func(lat, size float64) (IncastAblationPoint, error) {
			params := costmodel.Default()
			params.DragonIncastLatencyS = lat
			dr, err := RunFig6Checked(Fig6Config{
				Nodes: 128, Backend: datastore.Dragon, SizeMB: size,
				TrainIters: p.SweepIters, MaxEvents: p.MaxEvents, Params: &params,
			})
			if err != nil {
				return IncastAblationPoint{}, err
			}
			fs, err := RunFig6Checked(Fig6Config{
				Nodes: 128, Backend: datastore.FileSystem, SizeMB: size,
				TrainIters: p.SweepIters, MaxEvents: p.MaxEvents, Params: &params,
			})
			if err != nil {
				return IncastAblationPoint{}, err
			}
			return IncastAblationPoint{
				IncastLatencyS: lat, SizeMB: size,
				DragonFetchS: dr.FetchMeanS, FSFetchS: fs.FetchMeanS,
			}, nil
		})
}

// incastAblationTable structures the sweep for the reporters.
func incastAblationTable(points []IncastAblationPoint) scenario.Table {
	t := scenario.Table{
		Title: "Ablation — Dragon incast latency vs many-to-one fetch time (128 nodes)",
		Columns: []scenario.Column{
			{Key: "incast_lat_ms", Head: "incast-lat(ms)", HeadFmt: "%16s", CellFmt: "%16.1f"},
			{Key: "size_mb", Head: "size(MB)", HeadFmt: "%10s", CellFmt: "%10.2f"},
			{Key: "dragon_fetch_s", Head: "dragon-fetch(s)", HeadFmt: "%16s", CellFmt: "%16.4f"},
			{Key: "fs_fetch_s", Head: "fs-fetch(s)", HeadFmt: "%14s", CellFmt: "%14.4f"},
		},
	}
	for _, pt := range points {
		t.Rows = append(t.Rows, []any{pt.IncastLatencyS * 1000, pt.SizeMB, pt.DragonFetchS, pt.FSFetchS})
	}
	return t
}
