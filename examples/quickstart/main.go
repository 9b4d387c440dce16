// Quickstart: simulate one snooping algorithm on one workload and print
// the headline metrics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"flexsnoop"
)

func main() {
	ctx := context.Background()
	// Simulate the paper's choice high-performance algorithm (SupersetAgg
	// with the 7.3-KByte per-node predictor) on a SPLASH-2-like workload.
	res, err := flexsnoop.Simulate(ctx, flexsnoop.SupersetAgg, flexsnoop.FromWorkload("barnes"), flexsnoop.Options{
		OpsPerCore: 3000,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("algorithm:            %v (predictor %s)\n", res.Algorithm, res.Predictor)
	fmt.Printf("workload:             %s\n", res.Workload)
	fmt.Printf("execution time:       %d cycles\n", res.Cycles)
	fmt.Printf("snoops/read request:  %.2f\n", res.Stats.SnoopsPerReadRequest())
	fmt.Printf("ring segments/req:    %.2f\n", res.Stats.ReadSegmentsPerRequest())
	fmt.Printf("snoop energy:         %.1f uJ\n", res.EnergyNJ/1000)
	fmt.Printf("supplies (local/cache/memory): %d / %d / %d\n",
		res.Stats.LocalSupplies, res.Stats.CacheSupplies, res.Stats.MemorySupplies)

	// Compare against the Lazy baseline on the same streams.
	lazy, err := flexsnoop.Simulate(ctx, flexsnoop.Lazy, flexsnoop.FromWorkload("barnes"), flexsnoop.Options{OpsPerCore: 3000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvs Lazy: %.1f%% faster, %.1f%% of Lazy's snoop energy\n",
		(1-float64(res.Cycles)/float64(lazy.Cycles))*100,
		res.EnergyNJ/lazy.EnergyNJ*100)
}
