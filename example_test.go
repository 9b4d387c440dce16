package flexsnoop_test

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flexsnoop"
)

// The analytical Table 1 is exact and stable: Lazy snoops half the ring,
// Eager all of it, Oracle exactly the supplier.
func ExampleTable1() {
	for _, row := range flexsnoop.Table1() {
		fmt.Printf("%-6s snoops=%.1f messages=%.3f\n", row.Algorithm, row.SnoopOps, row.Messages)
	}
	// Output:
	// Lazy   snoops=3.5 messages=1.000
	// Eager  snoops=7.0 messages=1.875
	// Oracle snoops=1.0 messages=1.000
}

func ExampleParseAlgorithm() {
	alg, err := flexsnoop.ParseAlgorithm("SupersetAgg")
	fmt.Println(alg, err)
	_, err = flexsnoop.ParseAlgorithm("Sloppy")
	fmt.Println(err != nil)
	// Output:
	// SupersetAgg <nil>
	// true
}

func ExampleWorkloads() {
	names := flexsnoop.Workloads()
	fmt.Println(len(names), "workloads; first:", names[0], "last:", names[len(names)-1])
	// Output:
	// 13 workloads; first: barnes last: specweb
}

// Simulate runs one algorithm on one workload and returns the execution
// time and the Figure 6-9 metrics for that algorithm/workload pair.
func ExampleSimulate() {
	res, err := flexsnoop.Simulate(context.Background(), flexsnoop.Eager, flexsnoop.FromWorkload("water-sp"), flexsnoop.Options{
		OpsPerCore: 300, Seed: 1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	// Eager always snoops every other CMP.
	fmt.Printf("snoops/request=%.0f segments/request=%.0f\n",
		res.Stats.SnoopsPerReadRequest(), res.Stats.ReadSegmentsPerRequest())
	// Output:
	// snoops/request=7 segments/request=15
}

// The context bounds a simulation: the run stops between events as soon
// as the context is done, and the returned error wraps the context's
// error. A run whose context never fires is cycle-identical to one under
// context.Background.
func ExampleSimulate_context() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	res, err := flexsnoop.Simulate(ctx, flexsnoop.Eager, flexsnoop.FromWorkload("water-sp"), flexsnoop.Options{
		OpsPerCore: 300, Seed: 1,
	})
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Println("ran out of time")
		return
	}
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("snoops/request=%.0f\n", res.Stats.SnoopsPerReadRequest())
	// Output:
	// snoops/request=7
}
