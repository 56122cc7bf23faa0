// ensemble-surrogate: the paper's Pattern 2 mini-app — one surrogate
// model trained online from an ensemble of concurrent simulations. Each
// ensemble member stages an array every write period; the trainer blocks
// every read period until the data from *all* members has arrived (the
// consistent-workload rule of §4.2) before folding it into its loader.
//
//	go run ./examples/ensemble-surrogate -members 8 -backend dragon \
//	    -payload-mb 1 -train-iters 200 -time-scale 0.01
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"simaibench/pkg/simaibench"
)

func main() {
	members := flag.Int("members", 8, "ensemble size (simulation components)")
	backendName := flag.String("backend", "dragon", "staging backend (node-local is not valid for non-local reads)")
	payloadMB := flag.Float64("payload-mb", 1.0, "array size per member in MB")
	trainIters := flag.Int("train-iters", 200, "training iterations")
	writePeriod := flag.Int("write-period", 10, "solver iterations between writes")
	readPeriod := flag.Int("read-period", 10, "trainer iterations between ensemble reads")
	timeScale := flag.Float64("time-scale", 0.01, "wall-clock compression")
	flag.Parse()

	// Refuse, before any backend starts, what would hang (a period of 0)
	// or measure nothing (no members, no iterations, an empty payload).
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"members", float64(*members)}, {"train-iters", float64(*trainIters)},
		{"write-period", float64(*writePeriod)}, {"read-period", float64(*readPeriod)},
		{"payload-mb", *payloadMB}, {"time-scale", *timeScale},
	} {
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			log.Fatalf("-%s = %v, want a finite value above 0", f.name, f.v)
		}
	}

	backend, err := simaibench.ParseBackend(*backendName)
	if err != nil {
		log.Fatal(err)
	}
	if backend == simaibench.NodeLocal {
		log.Fatal("node-local staging cannot be read across nodes; use redis, dragon or filesystem (see §4.2 of the paper)")
	}
	mgr, info, err := simaibench.StartBackend(backend, "")
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Stop()

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

	rng := rand.New(rand.NewSource(1))
	field := make([]float64, int(*payloadMB*1e6)/8)
	for i := range field {
		field[i] = rng.NormFloat64()
	}
	payload := simaibench.EncodeFloat64s(field)

	w := simaibench.NewWorkflow("ensemble-surrogate")
	start := time.Now()

	// Ensemble members: independent simulation components.
	for m := 0; m < *members; m++ {
		m := m
		err := w.Register(simaibench.Component{
			Name: fmt.Sprintf("sim%d", m),
			Body: func(ctx simaibench.Ctx) error {
				store, err := simaibench.Connect(info)
				if err != nil {
					return err
				}
				defer store.Close()
				sim, err := simaibench.NewSimulation(fmt.Sprintf("sim%d", m), simCfg,
					simaibench.SimWithStore(store),
					simaibench.SimWithSeed(int64(m+1)),
					simaibench.SimWithTimeScale(*timeScale))
				if err != nil {
					return err
				}
				for step := 1; ; step++ {
					if err := sim.RunIteration(); err != nil {
						return err
					}
					if step%*writePeriod == 0 {
						key := fmt.Sprintf("member%d/step%d", m, step)
						if err := sim.StageWrite(key, payload); err != nil {
							return err
						}
						if err := store.StageWrite(fmt.Sprintf("member%d/head", m),
							[]byte(fmt.Sprint(step))); err != nil {
							return err
						}
					}
					if step%10 == 0 {
						stop, err := store.Poll("stop")
						if err != nil {
							return err
						}
						if stop {
							return nil
						}
					}
				}
			},
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Trainer: blocking ensemble read every read period.
	err = w.Register(simaibench.Component{
		Name: "trainer",
		Body: func(ctx simaibench.Ctx) error {
			store, err := simaibench.Connect(info)
			if err != nil {
				return err
			}
			defer store.Close()
			tr, err := simaibench.NewAI("trainer", aiCfg,
				simaibench.AIWithStore(store),
				simaibench.AIWithTimeScale(*timeScale))
			if err != nil {
				return err
			}
			lastHead := make([]string, *members)
			var fetchTotal time.Duration
			fetches := 0
			for i := 1; i <= *trainIters; i++ {
				if _, err := tr.TrainIteration(); err != nil {
					return err
				}
				if i%*readPeriod != 0 {
					continue
				}
				// Block until every member has fresh data, then read all
				// of it — the consistent-workload rule of the paper. A
				// head not yet staged, or not yet moved, is "not yet";
				// any error ends the trainer.
				fetchStart := time.Now()
				for m := 0; m < *members; m++ {
					headKey := fmt.Sprintf("member%d/head", m)
					var head []byte
					for {
						staged, err := store.Poll(headKey)
						if err != nil {
							return err
						}
						if staged {
							if head, err = store.StageRead(headKey); err != nil {
								return err
							}
							if string(head) != lastHead[m] {
								break
							}
						}
						time.Sleep(time.Duration(*timeScale * float64(time.Millisecond) * 100))
					}
					lastHead[m] = string(head)
					if err := tr.UpdateLoader(fmt.Sprintf("member%d/step%s", m, head)); err != nil {
						return err
					}
				}
				fetchTotal += time.Since(fetchStart)
				fetches++
			}
			if err := store.StageWrite("stop", []byte("1")); err != nil {
				return err
			}
			r := tr.Report()
			fmt.Printf("trainer: %d iterations, %d ensemble reads of %d members each\n",
				r.Iterations, fetches, *members)
			fmt.Printf("         exec/iter %.4f s, mean ensemble fetch %.4f s, read %.3f GB/s, loss %.4g\n",
				time.Since(start).Seconds()/(*timeScale)/float64(*trainIters),
				fetchTotal.Seconds()/(*timeScale)/float64(max(fetches, 1)),
				r.ReadGBps, r.LastLoss)
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	if err := w.Launch(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("makespan: %.1f emulated s (%.2f s wall, backend %s, %d members)\n",
		time.Since(start).Seconds()/(*timeScale), time.Since(start).Seconds(), backend, *members)
}
