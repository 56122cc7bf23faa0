// ensemble-surrogate: the paper's Pattern 2 mini-app — one surrogate
// model trained online from an ensemble of concurrent simulations. Each
// ensemble member stages an array every write period; the trainer blocks
// every read period until the data from *all* members has arrived (the
// consistent-workload rule of §4.2), folds it into its loader and cleans
// what it read. One member runs the lone-solver trainer instead, which
// skips a read period with no new array. The loop is the library's
// (simaibench.RunOneToOne with Ensemble set, as behind examples/nekrs-ml),
// on the wall clock.
//
//	go run ./examples/ensemble-surrogate -members 8 -backend dragon \
//	    -payload-mb 1 -train-iters 200 -time-scale 0.01
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"simaibench/pkg/simaibench"
)

func main() {
	members := flag.Int("members", 8, "ensemble size (simulation components); 1 runs the lone-solver trainer, which skips a read period with no new array")
	backendName := flag.String("backend", "dragon", "staging backend (node-local is not valid for non-local reads)")
	payloadMB := flag.Float64("payload-mb", 1.0, "array size per member in MB")
	trainIters := flag.Int("train-iters", 200, "training iterations")
	writePeriod := flag.Int("write-period", 10, "solver iterations between writes")
	readPeriod := flag.Int("read-period", 10, "trainer iterations between ensemble reads")
	timeScale := flag.Float64("time-scale", 0.01, "wall-clock compression")
	flag.Parse()
	if *members < 1 {
		log.Fatalf("-members = %d, want at least 1", *members)
	}

	backend, err := simaibench.ParseBackend(*backendName)
	if err != nil {
		log.Fatal(err)
	}
	if backend == simaibench.NodeLocal {
		log.Fatal("node-local staging cannot be read across nodes; use redis, dragon or filesystem (see §4.2 of the paper)")
	}
	simCfg, err := simaibench.ParseSimulationConfig([]byte(`{
		"kernels": [{
			"name": "sim_iter",
			"mini_app_kernel": "AXPY",
			"run_time": 0.0325,
			"data_size": [512],
			"device": "xpu"
		}]
	}`))
	if err != nil {
		log.Fatal(err)
	}
	aiCfg := simaibench.AIConfig{Layers: []int{16, 64, 16}, LR: 0.01, Batch: 32}
	rt := simaibench.DistSpec{Type: "fixed", Value: 0.0633}
	aiCfg.RunTime = &rt

	wallStart := time.Now()
	res, err := simaibench.RunOneToOne(context.Background(), simaibench.OneToOneConfig{
		Backend:     backend,
		Sim:         simCfg,
		AI:          aiCfg,
		Ensemble:    *members,
		TrainIters:  *trainIters,
		WritePeriod: *writePeriod,
		ReadPeriod:  *readPeriod,
		ArrayBytes:  []int{int(*payloadMB * 1e6)},
		TimeScale:   *timeScale,
		Seed:        1,
		Clock:       "wall",
	})
	if err != nil {
		log.Fatal(err)
	}

	r := res.Train
	fmt.Printf("trainer: %d iterations, %d array reads from %d members, exec/iter %.4f s, read %.3f GB/s, loss %.4g\n",
		r.Iterations, r.Reads, *members, res.MakespanS/float64(r.Iterations), r.ReadGBps, r.LastLoss)
	fmt.Printf("member 0: %d steps, %d snapshot writes\n", res.Sim.Iterations, res.Sim.Writes)
	fmt.Printf("makespan: %.1f emulated s (%.2f s wall, backend %s)\n",
		res.MakespanS, time.Since(wallStart).Seconds(), backend)
}
