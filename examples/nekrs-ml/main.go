// nekrs-ml: the paper's Pattern 1 mini-app — a co-located CFD solver
// emulation (nekRS stand-in) training a surrogate model online. The two
// components run concurrently and fully asynchronously: the simulation
// stages flow-field snapshots at a fixed period, the trainer polls for
// fresh data and folds it into its data loader, and after its final
// iteration it steers the simulation to stop. The loop itself is the
// library's (simaibench.RunOneToOne, the one behind the validation
// scenarios and the simaibench CLI); this program only configures it.
//
//	go run ./examples/nekrs-ml -backend node-local -payload-mb 1.2 \
//	    -train-iters 500 -time-scale 0.01
//
// By default the workflow pads on a deterministic virtual clock and
// completes as fast as its real compute allows; -clock wall restores
// the genuine real-time emulation.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"simaibench/pkg/simaibench"
)

func main() {
	backendName := flag.String("backend", "node-local", "staging backend")
	payloadMB := flag.Float64("payload-mb", 1.2, "snapshot size in MB (the original writes 1.2 MB per rank)")
	trainIters := flag.Int("train-iters", 500, "GNN training iterations (paper: 5000)")
	writePeriod := flag.Int("write-period", 100, "solver iterations between snapshots")
	readPeriod := flag.Int("read-period", 10, "trainer iterations between polls")
	timeScale := flag.Float64("time-scale", 0.01, "wall-clock compression")
	clockKind := flag.String("clock", "virtual", "emulation clock: virtual (deterministic, DES speed) or wall (real time)")
	timelineCSV := flag.String("timeline-csv", "", "optional path for a Fig-2-style timeline CSV")
	flag.Parse()

	backend, err := simaibench.ParseBackend(*backendName)
	if err != nil {
		log.Fatal(err)
	}
	// The Listing 2 configuration: nekRS iteration emulated at 0.03147 s
	// (kernel swapped for a light one so the scaled timing stays exact).
	simCfg, err := simaibench.ParseSimulationConfig([]byte(`{
		"kernels": [{
			"name": "nekrs_iter",
			"mini_app_kernel": "AXPY",
			"run_time": 0.03147,
			"data_size": [512],
			"device": "xpu"
		}]
	}`))
	if err != nil {
		log.Fatal(err)
	}
	aiCfg := simaibench.AIConfig{Layers: []int{16, 64, 16}, LR: 0.01, Batch: 16}
	rt := simaibench.DistSpec{Type: "fixed", Value: 0.061}
	aiCfg.RunTime = &rt

	wallStart := time.Now()
	res, err := simaibench.RunOneToOne(context.Background(), simaibench.OneToOneConfig{
		Backend:     backend,
		Sim:         simCfg,
		AI:          aiCfg,
		TrainIters:  *trainIters,
		WritePeriod: *writePeriod,
		ReadPeriod:  *readPeriod,
		// One array per snapshot: a float field, like a velocity field.
		ArrayBytes: []int{int(*payloadMB * 1e6)},
		TimeScale:  *timeScale,
		Seed:       1,
		Clock:      *clockKind,
	})
	if err != nil {
		log.Fatal(err)
	}

	sim, gnn := res.Sim, res.Train
	fmt.Printf("nekrs: stopped after %d steps (iter %.4f ± %.4f s, %d snapshot writes, %.3f GB/s)\n",
		sim.Iterations, sim.IterMean, sim.IterStd, sim.Writes, sim.WriteGBps)
	fmt.Printf("gnn:   %d iterations (iter %.4f ± %.4f s, %d snapshot reads, %.3f GB/s, loss %.4g)\n",
		gnn.Iterations, gnn.IterMean, gnn.IterStd, gnn.Reads, gnn.ReadGBps, gnn.LastLoss)
	fmt.Printf("makespan: %.1f emulated s (%.2f s wall, backend %s, clock %s)\n",
		res.MakespanS, time.Since(wallStart).Seconds(), backend, *clockKind)
	if *timelineCSV != "" {
		f, err := os.Create(*timelineCSV)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := res.Timeline.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline written to %s\n", *timelineCSV)
	}
}
