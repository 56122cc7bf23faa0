// Command simaibench runs a co-located one-to-one workflow mini-app from
// JSON component configurations — the CLI equivalent of the paper's
// quick-prototyping flow: pick a backend at runtime, point at a
// simulation config (Listing 2 schema) and an AI config, and get
// per-component iteration and transport statistics.
//
// Example:
//
//	simaibench -backend node-local -sim sim.json -ai ai.json \
//	    -train-iters 500 -payload-mb 1.2 -time-scale 0.01
//
// Omitting -sim/-ai uses the built-in nekRS-ML emulation configs.
//
// The serve subcommand runs the simulation service instead (HTTP/JSON
// API over the scenario registry with caching, admission control and
// graceful shutdown — see internal/serve):
//
//	simaibench serve -addr :8080
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"simaibench/internal/clock"
	"simaibench/internal/config"
	"simaibench/internal/datastore"
	"simaibench/internal/experiments"
)

// builtinSimConfig is the Listing 2 nekRS emulation, with the heavy
// matmul swapped for a small kernel so timing emulation stays accurate
// under aggressive time scales.
const builtinSimConfig = `{
  "kernels": [{
    "name": "nekrs_iter",
    "mini_app_kernel": "AXPY",
    "run_time": 0.03147,
    "data_size": [512],
    "device": "xpu"
  }]
}`

const builtinAIConfig = `{
  "layers": [16, 32, 16],
  "lr": 0.01,
  "batch": 16,
  "run_time": 0.061,
  "device": "xpu"
}`

func main() {
	// Subcommand dispatch: `simaibench serve` is the long-running
	// simulation service; everything else is the original flag-driven
	// one-shot workflow run.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(context.Background(), os.Args[2:], os.Stderr))
	}
	os.Exit(realMain(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable body of the one-shot run: flags to an
// experiments.OneToOneConfig on the wall clock, RunOneToOne, print. It
// returns the process exit code (0 done, 1 a rejected value or a failed
// run, 2 flag-parse failure).
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simaibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	backendFlag := fs.String("backend", "node-local", "data transport backend: redis|dragon|node-local|filesystem")
	simPath := fs.String("sim", "", "simulation component config JSON (default: built-in nekRS emulation)")
	aiPath := fs.String("ai", "", "AI component config JSON (default: built-in trainer)")
	trainIters := fs.Int("train-iters", 500, "training iterations before the trainer stops the workflow")
	writePeriod := fs.Int("write-period", 100, "solver iterations between snapshot writes")
	readPeriod := fs.Int("read-period", 10, "training iterations between data polls")
	payloadMB := fs.Float64("payload-mb", 1.2, "staged array size in MB")
	timeScale := fs.Float64("time-scale", 0.01, "wall-clock compression factor")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	res, err := run(ctx, *backendFlag, *simPath, *aiPath, experiments.OneToOneConfig{
		TrainIters:  *trainIters,
		WritePeriod: *writePeriod,
		ReadPeriod:  *readPeriod,
		ArrayBytes:  []int{int(*payloadMB * 1e6)},
		TimeScale:   *timeScale,
		Seed:        1,
		Clock:       clock.KindWall,
	})
	if err != nil {
		fmt.Fprintln(stderr, "simaibench:", err)
		return 1
	}

	sim, tr := res.Sim, res.Train
	fmt.Fprintf(stdout, "backend %s, makespan %.1f emulated s\n", *backendFlag, res.MakespanS)
	fmt.Fprintf(stdout, "Simulation: %d steps, iter %.4f ± %.4f s, %d writes (mean %.4f s, %.3f GB/s)\n",
		sim.Iterations, sim.IterMean, sim.IterStd, sim.Writes, sim.WriteMean, sim.WriteGBps)
	fmt.Fprintf(stdout, "Training:   %d steps, iter %.4f ± %.4f s, %d reads (mean %.4f s, %.3f GB/s), final loss %.4g\n",
		tr.Iterations, tr.IterMean, tr.IterStd, tr.Reads, tr.ReadMean, tr.ReadGBps, tr.LastLoss)
	return 0
}

// run resolves the backend and the two component configurations into
// cfg and runs the workflow.
func run(ctx context.Context, backend, simPath, aiPath string, cfg experiments.OneToOneConfig) (res experiments.OneToOneResult, err error) {
	if cfg.Backend, err = datastore.ParseBackend(backend); err != nil {
		return res, err
	}
	if cfg.Sim, err = loadSimConfig(simPath); err != nil {
		return res, err
	}
	if cfg.AI, err = loadAIConfig(aiPath); err != nil {
		return res, err
	}
	return experiments.RunOneToOne(ctx, cfg)
}

func loadSimConfig(path string) (config.SimulationConfig, error) {
	if path == "" {
		return config.ParseSimulation([]byte(builtinSimConfig))
	}
	return config.LoadSimulation(path)
}

func loadAIConfig(path string) (config.AIConfig, error) {
	if path == "" {
		return config.ParseAI([]byte(builtinAIConfig))
	}
	return config.LoadAI(path)
}
