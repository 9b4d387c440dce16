// tracedriven demonstrates the paper's trace-driven methodology for the
// SPEC workloads (Section 5.1): record a workload's per-core reference
// streams once, then replay the identical trace under different snooping
// algorithms so the comparison is exact ("we compare the different
// snooping algorithms with exactly the same traces").
//
//	go run ./examples/tracedriven
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"flexsnoop"
	"flexsnoop/internal/stats"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "flexsnoop-trace")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "specjbb.trace")

	// Record once.
	if err := flexsnoop.WriteTraceFile(path, "specjbb", 3000, 42); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("recorded %s (%d KiB)\n\n", path, info.Size()>>10)

	// Replay under each algorithm: identical reference streams, so the
	// differences are purely the snooping algorithm's.
	t := stats.NewTable("trace-driven replay (specjbb-like, 8 cores)",
		"Algorithm", "Cycles", "Snoops/req", "Prefetch hits", "Energy (uJ)")
	for _, alg := range []flexsnoop.Algorithm{
		flexsnoop.Lazy, flexsnoop.Eager, flexsnoop.SupersetCon, flexsnoop.SupersetAgg,
	} {
		res, err := flexsnoop.Simulate(ctx, alg, flexsnoop.FromTraceFile(path), flexsnoop.Options{})
		if err != nil {
			log.Fatal(err)
		}
		t.AddRowf(alg.String(), fmt.Sprintf("%d", res.Cycles),
			res.Stats.SnoopsPerReadRequest(),
			fmt.Sprintf("%d", res.Stats.PrefetchHits),
			res.EnergyNJ/1000)
	}
	fmt.Println(t)
	fmt.Println("SPECjbb-like behaviour: threads share little, so most ring requests")
	fmt.Println("find no supplier and fall through to memory — Lazy snoops nearly all")
	fmt.Println("7 CMPs per request while the Superset algorithms filter almost all of")
	fmt.Println("them, and the prefetch-on-snoop heuristic hides most of the DRAM trip.")
}
