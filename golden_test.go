package flexsnoop_test

import (
	"context"
	"testing"

	"flexsnoop"
)

// TestGoldenDeterminism pins the exact outcome of one small reference run
// per algorithm. These values have no external meaning — they exist to
// catch unintended behavioural drift: any legitimate change to the
// protocol, timing model or workload generators will move them, and this
// test is the prompt to re-run the calibration in EXPERIMENTS.md before
// updating the constants.
func TestGoldenDeterminism(t *testing.T) {
	type golden struct {
		alg          flexsnoop.Algorithm
		readRequests uint64
	}
	// First run establishes that repeated runs are bit-identical; the
	// cross-run table below checks relative ordering without hardcoding
	// absolute cycles (which shift with any calibration change).
	base, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("water-sp"), flexsnoop.Options{OpsPerCore: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	again, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("water-sp"), flexsnoop.Options{OpsPerCore: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles != again.Cycles || base.Stats != again.Stats || base.EnergyNJ != again.EnergyNJ {
		t.Fatal("identical runs produced different results — determinism broken")
	}

	var cycles []uint64
	var energy []float64
	algs := []flexsnoop.Algorithm{flexsnoop.Lazy, flexsnoop.Eager, flexsnoop.SupersetCon, flexsnoop.SupersetAgg}
	for _, alg := range algs {
		res, err := flexsnoop.Simulate(context.Background(), alg, flexsnoop.FromWorkload("water-sp"), flexsnoop.Options{OpsPerCore: 500, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		cycles = append(cycles, uint64(res.Cycles))
		energy = append(energy, res.EnergyNJ)
	}
	lazy, eager, con, agg := 0, 1, 2, 3
	if !(cycles[agg] < cycles[con] && cycles[con] < cycles[lazy]) {
		t.Errorf("cycle ordering broken: agg=%d con=%d lazy=%d", cycles[agg], cycles[con], cycles[lazy])
	}
	if !(energy[con] < energy[agg] && energy[agg] < energy[eager]) {
		t.Errorf("energy ordering broken: con=%.0f agg=%.0f eager=%.0f", energy[con], energy[agg], energy[eager])
	}
}
