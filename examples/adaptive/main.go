// adaptive demonstrates the dynamic system the paper envisions in Section
// 6.1.5: SupersetAgg and SupersetCon share the same supplier predictor and
// differ only in the action taken on a positive prediction, so a machine
// can switch between them at run time — aggressive for performance,
// conservative when it must save energy.
//
// This example runs the same workload under a range of energy budgets and
// shows the governor trading speed for energy.
//
//	go run ./examples/adaptive
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
	const wl = "radiosity"
	const ops = 2500

	// Endpoints: the two static algorithms.
	agg, err := flexsnoop.Simulate(ctx, flexsnoop.SupersetAgg, flexsnoop.FromWorkload(wl), flexsnoop.Options{OpsPerCore: ops})
	if err != nil {
		log.Fatal(err)
	}
	con, err := flexsnoop.Simulate(ctx, flexsnoop.SupersetCon, flexsnoop.FromWorkload(wl), flexsnoop.Options{OpsPerCore: ops})
	if err != nil {
		log.Fatal(err)
	}

	t := stats.NewTable("dynamic SupersetAgg<->SupersetCon ("+wl+")",
		"Configuration", "Cycles", "Energy (uJ)", "Aggressive fraction")
	t.AddRowf("static SupersetAgg", fmt.Sprintf("%d", agg.Cycles), agg.EnergyNJ/1000, 1.0)

	// The interesting budgets lie between the two static algorithms'
	// energy rates (nJ per 1000 cycles): above the aggressive rate the
	// governor never throttles; below the conservative rate it always
	// does; in between it oscillates, trading speed for energy.
	conRate := con.EnergyNJ / float64(con.Cycles) * 1000
	aggRate := agg.EnergyNJ / float64(agg.Cycles) * 1000
	budgets := []float64{
		aggRate * 1.2,
		aggRate * 0.95,
		(aggRate + conRate) / 2,
		conRate * 1.05,
		conRate * 0.8,
	}
	for _, budget := range budgets {
		res, err := flexsnoop.Simulate(ctx, flexsnoop.DynamicSuperset, flexsnoop.FromWorkload(wl), flexsnoop.Options{
			OpsPerCore:                ops,
			GovernorBudgetNJPerKCycle: budget,
		})
		if err != nil {
			log.Fatal(err)
		}
		t.AddRowf(fmt.Sprintf("dynamic, budget %.1f nJ/kcycle", budget),
			fmt.Sprintf("%d", res.Cycles), res.EnergyNJ/1000, res.GovernorAggFrac)
	}
	t.AddRowf("static SupersetCon", fmt.Sprintf("%d", con.Cycles), con.EnergyNJ/1000, 0.0)
	fmt.Println(t)

	fmt.Println("Tighter budgets push the governor toward the SupersetCon action:")
	fmt.Println("execution time drifts up a few percent while snoop energy drops —")
	fmt.Println("the trade the paper quantifies as 3-6% slower for 36-42% less energy.")
}
