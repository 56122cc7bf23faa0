// multi-tenant: the scale-out scenario exercised programmatically — N
// co-scheduled workflow instances staging through ONE shared backend
// deployment, where contention inverts the paper's single-tenant
// transport rankings. Two views of the same machinery:
//
// With no flags, single points through simaibench.RunScaleOutChecked:
// one backend at increasing tenant counts, printing the slowdown and
// aggregate-throughput collapse as the shared deployment saturates.
//
// With -scenario, the registered "scale-out" scenario runs through the
// public registry API (the programmatic equivalent of
// `go run ./cmd/experiments -exp scale-out`), rendering every backend's
// collapse-curve table.
//
//	go run ./examples/multi-tenant [-backend redis] [-size-mb 8] [-iters 300]
//	go run ./examples/multi-tenant -scenario [-tenants 8] [-format text]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"simaibench/pkg/simaibench"
)

func main() {
	backendName := flag.String("backend", "redis", "backend for the point-by-point sweep")
	sizeMB := flag.Float64("size-mb", 8, "snapshot size in MB")
	iters := flag.Int("iters", 300, "simulated training iterations per point")
	scenario := flag.Bool("scenario", false, "run the registered scale-out scenario for all backends instead")
	tenants := flag.Int("tenants", 8, "max tenants for -scenario (sweep doubles 1,2,4,...)")
	format := flag.String("format", "text", "reporter for -scenario: text|json|csv")
	flag.Parse()

	if *scenario {
		res, err := simaibench.RunScenario(context.Background(), "scale-out",
			simaibench.ScenarioParams{SweepIters: *iters, Tenants: *tenants})
		if err != nil {
			log.Fatal(err)
		}
		if err := simaibench.ReportResults(os.Stdout, *format, res); err != nil {
			log.Fatal(err)
		}
		return
	}

	backend, err := simaibench.ParseBackend(*backendName)
	if err != nil {
		log.Fatal(err)
	}
	shared := "per-node (nothing shared: expect flat latency, linear aggregate)"
	if simaibench.SharedDeployment(backend) {
		shared = "shared deployment (tenants queue on its service slots)"
	}
	fmt.Printf("backend %s — %s\n", backend, shared)

	// The harness gives every tenant a dedicated block (oversubscription
	// 1.0); show what packing the largest sweep point onto a fixed
	// 8-node pool would look like instead.
	pool := simaibench.Aurora(8)
	packed, err := simaibench.CoSchedule(pool, 16, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placement: dedicated blocks (16 tenants × 2 nodes packed on 8 nodes would be %.1fx oversubscribed)\n\n",
		simaibench.Oversubscription(pool, packed))
	fmt.Printf("%8s %13s %13s %11s %9s\n",
		"tenants", "stage-mean(s)", "p50-stage(s)", "agg(GB/s)", "slowdown")

	var base float64
	for _, n := range []int{1, 2, 4, 8, 16} {
		pt, err := simaibench.RunScaleOutChecked(simaibench.ScaleOutConfig{
			Tenants: n, Backend: backend, SizeMB: *sizeMB, TrainIters: *iters,
		})
		if err != nil {
			log.Fatal(err)
		}
		if n == 1 {
			base = pt.StageMeanS
		}
		slowdown := 0.0
		if base > 0 {
			slowdown = pt.StageMeanS / base
		}
		fmt.Printf("%8d %13.5f %13.5f %11.3f %9.2f\n",
			n, pt.StageMeanS, pt.StageP50S, pt.AggGBps, slowdown)
	}
}
