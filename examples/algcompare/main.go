// algcompare reproduces the core of the paper's evaluation in miniature:
// every snooping algorithm on one workload from each class (SPLASH-2-like
// sharing-heavy, SPECjbb-like memory-bound, SPECweb-like mixed), printing
// the four dimensions of Section 6.1 — snoop operations, ring messages,
// execution time and snoop energy.
//
//	go run ./examples/algcompare
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
	workloads := []string{"barnes", "specjbb", "specweb"}
	const ops = 2500

	for _, wl := range workloads {
		t := stats.NewTable("workload: "+wl,
			"Algorithm", "Snoops/req", "Segments/req", "Cycles (norm)", "Energy (norm)")
		var lazyCycles, lazyEnergy float64
		for _, alg := range flexsnoop.Algorithms() {
			res, err := flexsnoop.Simulate(ctx, alg, flexsnoop.FromWorkload(wl), flexsnoop.Options{OpsPerCore: ops})
			if err != nil {
				log.Fatal(err)
			}
			if alg == flexsnoop.Lazy {
				lazyCycles = float64(res.Cycles)
				lazyEnergy = res.EnergyNJ
			}
			t.AddRowf(alg.String(),
				res.Stats.SnoopsPerReadRequest(),
				res.Stats.ReadSegmentsPerRequest(),
				float64(res.Cycles)/lazyCycles,
				res.EnergyNJ/lazyEnergy)
		}
		fmt.Println(t)
	}
	fmt.Println("Expected shape (paper, Figures 6-9): Eager snoops all 7 CMPs and")
	fmt.Println("costs ~1.8x Lazy's energy; SupersetAgg is the fastest at a fraction")
	fmt.Println("of Eager's energy; SupersetCon matches Lazy's message count with far")
	fmt.Println("fewer snoops; Exact snoops least but pays for downgrades.")
}
