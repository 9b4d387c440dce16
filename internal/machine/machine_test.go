package machine

import (
	"testing"

	"flexsnoop/internal/config"
	"flexsnoop/internal/core"
	"flexsnoop/internal/energy"
	"flexsnoop/internal/fault"
	"flexsnoop/internal/protocol"
	"flexsnoop/internal/sim"
	"flexsnoop/internal/telemetry"
	"flexsnoop/internal/trace"
	"flexsnoop/internal/workload"
)

// smallExp returns a quick experiment used across tests.
func smallExp(t *testing.T, alg config.Algorithm, profName string, ops uint64) Experiment {
	t.Helper()
	prof, err := workload.ByName(profName)
	if err != nil {
		t.Fatal(err)
	}
	exp := New(alg, prof)
	exp.OpsPerCore = ops
	exp.CheckInvariants = true
	return exp
}

func TestRunAllAlgorithmsOnSPLASH(t *testing.T) {
	for _, alg := range config.Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			res, err := Run(smallExp(t, alg, "fft", 400))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Cycles == 0 || res.Instructions == 0 {
				t.Fatalf("empty result: %+v", res)
			}
			if res.Stats.ReadRequests == 0 {
				t.Error("no ring read requests issued — workload too private?")
			}
			if res.EnergyNJ <= 0 {
				t.Error("no energy accumulated")
			}
			// All 32 cores retired their streams.
			wantInstr := res.Instructions > 32*400 // compute + refs
			if !wantInstr {
				t.Errorf("instructions = %d, want > 12800", res.Instructions)
			}
		})
	}
}

func TestSPECUsesOneCorePerCMP(t *testing.T) {
	exp := smallExp(t, config.Lazy, "specjbb", 300)
	if exp.Machine.CoresPerCMP != 1 {
		t.Fatalf("SPEC experiment built with %d cores/CMP, want 1 (Section 5.1)", exp.Machine.CoresPerCMP)
	}
	res, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
}

func TestEagerFasterButHungrierThanLazy(t *testing.T) {
	lazy, err := Run(smallExp(t, config.Lazy, "barnes", 800))
	if err != nil {
		t.Fatal(err)
	}
	eager, err := Run(smallExp(t, config.Eager, "barnes", 800))
	if err != nil {
		t.Fatal(err)
	}
	// Eager snoops more (approaches N-1) and uses more ring segments.
	if eager.Stats.SnoopsPerReadRequest() <= lazy.Stats.SnoopsPerReadRequest() {
		t.Errorf("Eager snoops/request %.2f <= Lazy %.2f",
			eager.Stats.SnoopsPerReadRequest(), lazy.Stats.SnoopsPerReadRequest())
	}
	if eager.Stats.ReadSegmentsPerRequest() <= lazy.Stats.ReadSegmentsPerRequest() {
		t.Errorf("Eager segments/request %.2f <= Lazy %.2f",
			eager.Stats.ReadSegmentsPerRequest(), lazy.Stats.ReadSegmentsPerRequest())
	}
	// Eager is faster (Figure 8) and consumes more energy (Figure 9).
	if eager.Cycles >= lazy.Cycles {
		t.Errorf("Eager cycles %d >= Lazy cycles %d", eager.Cycles, lazy.Cycles)
	}
	if eager.EnergyNJ <= lazy.EnergyNJ {
		t.Errorf("Eager energy %.0f <= Lazy energy %.0f", eager.EnergyNJ, lazy.EnergyNJ)
	}
}

func TestOracleIsLowerBound(t *testing.T) {
	oracle, err := Run(smallExp(t, config.Oracle, "lu", 600))
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Run(smallExp(t, config.Lazy, "lu", 600))
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Cycles >= lazy.Cycles {
		t.Errorf("Oracle cycles %d >= Lazy %d", oracle.Cycles, lazy.Cycles)
	}
	// Oracle snoops at most one node per request.
	if s := oracle.Stats.SnoopsPerReadRequest(); s > 1.01 {
		t.Errorf("Oracle snoops/request = %.3f, want <= 1", s)
	}
}

func TestSupersetConservativeVsAggressive(t *testing.T) {
	con, err := Run(smallExp(t, config.SupersetCon, "radiosity", 600))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Run(smallExp(t, config.SupersetAgg, "radiosity", 600))
	if err != nil {
		t.Fatal(err)
	}
	// Con uses one combined message; Agg splits after positives.
	if con.Stats.ReadSegmentsPerRequest() > agg.Stats.ReadSegmentsPerRequest() {
		t.Errorf("Con segments %.2f > Agg %.2f",
			con.Stats.ReadSegmentsPerRequest(), agg.Stats.ReadSegmentsPerRequest())
	}
	// Con consumes no more energy than Agg (Section 6.1.5).
	if con.EnergyNJ > agg.EnergyNJ {
		t.Errorf("Con energy %.0f > Agg energy %.0f", con.EnergyNJ, agg.EnergyNJ)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(smallExp(t, config.SupersetAgg, "water-ns", 400))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallExp(t, config.SupersetAgg, "water-ns", 400))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.EnergyNJ != b.EnergyNJ || a.Stats != b.Stats {
		t.Error("identical experiments produced different results")
	}
}

func TestSeedChangesResults(t *testing.T) {
	e1 := smallExp(t, config.Lazy, "ocean", 400)
	e2 := smallExp(t, config.Lazy, "ocean", 400)
	e2.Seed = 99
	a, err := Run(e1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(e2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == b.Cycles && a.Stats.ReadRequests == b.Stats.ReadRequests {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestTraceDrivenMatchesGenerator(t *testing.T) {
	prof, _ := workload.ByName("specweb")
	gen := smallExp(t, config.SupersetCon, "specweb", 400)
	fromGen, err := Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	// Record the same streams and replay them trace-driven.
	cores := gen.Machine.TotalCores()
	traces := make([][]workload.Op, cores)
	for g := 0; g < cores; g++ {
		traces[g] = trace.Record(workload.NewGenerator(prof, g, 400, gen.Seed))
	}
	tr := gen
	tr.Traces = traces
	fromTrace, err := Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if fromGen.Cycles != fromTrace.Cycles || fromGen.Stats.ReadRequests != fromTrace.Stats.ReadRequests {
		t.Errorf("trace-driven run diverged: %d vs %d cycles", fromGen.Cycles, fromTrace.Cycles)
	}
}

func TestDynamicGovernorSwitchesModes(t *testing.T) {
	prof, _ := workload.ByName("barnes")
	exp := New(config.DynamicSuperset, prof)
	exp.OpsPerCore = 800
	exp.CheckInvariants = true
	// A budget low enough that aggressive mode overshoots it.
	exp.Governor = DefaultGovernor(0.5)
	res, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if res.GovernorAggFrac >= 1 {
		t.Errorf("governor never left aggressive mode (agg frac %.2f)", res.GovernorAggFrac)
	}
	// A huge budget keeps it aggressive.
	exp.Governor = DefaultGovernor(1e12)
	res2, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if res2.GovernorAggFrac != 1 {
		t.Errorf("unbounded budget should stay aggressive, got agg frac %.2f", res2.GovernorAggFrac)
	}
}

func TestPrefetchAblation(t *testing.T) {
	on := smallExp(t, config.SupersetAgg, "specjbb", 500)
	off := smallExp(t, config.SupersetAgg, "specjbb", 500)
	off.Machine.PrefetchOnSnoop = false
	ron, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	roff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if ron.Stats.PrefetchHits == 0 {
		t.Error("prefetch-on run recorded no prefetch hits on a memory-bound workload")
	}
	if roff.Stats.PrefetchHits != 0 {
		t.Error("prefetch-off run recorded prefetch hits")
	}
	// Prefetch should speed up the memory-bound workload.
	if ron.Cycles >= roff.Cycles {
		t.Errorf("prefetch on (%d cycles) not faster than off (%d)", ron.Cycles, roff.Cycles)
	}
}

func TestExactSeesDowngradesOnSharingWorkload(t *testing.T) {
	exp := smallExp(t, config.Exact, "fft", 800)
	// Shrink the predictor to force conflict evictions.
	exp.Predictor = config.Exa512()
	res, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Downgrades == 0 {
		t.Error("Exact with a small predictor performed no downgrades")
	}
}

func TestRejectsEmptyExperiment(t *testing.T) {
	prof, _ := workload.ByName("fft")
	exp := New(config.Lazy, prof)
	exp.OpsPerCore = 0
	if _, err := Run(exp); err == nil {
		t.Error("empty experiment accepted")
	}
}

func TestRejectsInvalidWorkload(t *testing.T) {
	exp := New(config.Lazy, workload.Profile{Name: "bad"})
	exp.OpsPerCore = 10
	if _, err := Run(exp); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestEnergyBreakdownConsistent(t *testing.T) {
	res, err := Run(smallExp(t, config.SupersetCon, "cholesky", 400))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range res.EnergyBreakdown {
		sum += v
	}
	if diff := sum - res.EnergyNJ; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("breakdown sum %.3f != total %.3f", sum, res.EnergyNJ)
	}
	if res.EnergyBreakdown[energy.RingLink] == 0 {
		t.Error("no ring-link energy recorded")
	}
	if res.EnergyBreakdown[energy.Predictor] == 0 {
		t.Error("no predictor energy recorded for a superset algorithm")
	}
}

func TestLocalMasterAblation(t *testing.T) {
	with := smallExp(t, config.SupersetAgg, "barnes", 600)
	without := smallExp(t, config.SupersetAgg, "barnes", 600)
	without.Machine.DisableLocalMaster = true
	rw, err := Run(with)
	if err != nil {
		t.Fatal(err)
	}
	rwo, err := Run(without)
	if err != nil {
		t.Fatal(err)
	}
	// Without S_L, CMP-local supply of ring-fetched lines disappears, so
	// more reads go to the ring.
	if rwo.Stats.LocalSupplies >= rw.Stats.LocalSupplies {
		t.Errorf("local supplies without SL (%d) >= with SL (%d)",
			rwo.Stats.LocalSupplies, rw.Stats.LocalSupplies)
	}
	if rwo.Stats.ReadRequests <= rw.Stats.ReadRequests {
		t.Errorf("ring reads without SL (%d) <= with SL (%d)",
			rwo.Stats.ReadRequests, rw.Stats.ReadRequests)
	}
}

func TestWarmupWindow(t *testing.T) {
	full := smallExp(t, config.Lazy, "barnes", 800)
	warm := smallExp(t, config.Lazy, "barnes", 800)
	warm.WarmupCycles = 50_000
	rf, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}
	// The measurement window excludes warmup work.
	if rw.Cycles != rf.Cycles-50_000 {
		t.Errorf("warmup cycles = %d, want %d", rw.Cycles, rf.Cycles-50_000)
	}
	if rw.Stats.ReadRequests >= rf.Stats.ReadRequests {
		t.Errorf("warmed ReadRequests %d >= full %d", rw.Stats.ReadRequests, rf.Stats.ReadRequests)
	}
	if rw.EnergyNJ >= rf.EnergyNJ {
		t.Errorf("warmed energy %.0f >= full %.0f", rw.EnergyNJ, rf.EnergyNJ)
	}
	// Cold misses concentrate in warmup: the steady-state memory-supply
	// share drops.
	coldShare := float64(rf.Stats.MemorySupplies) / float64(rf.Stats.ReadRequests)
	warmShare := float64(rw.Stats.MemorySupplies) / float64(rw.Stats.ReadRequests)
	if warmShare >= coldShare {
		t.Errorf("steady-state memory share %.3f >= full-run share %.3f", warmShare, coldShare)
	}
}

func TestWarmupLongerThanRunRejected(t *testing.T) {
	exp := smallExp(t, config.Lazy, "fft", 50)
	exp.WarmupCycles = 1 << 40
	if _, err := Run(exp); err == nil {
		t.Error("warmup longer than the run accepted")
	}
}

func TestReadMissHistogramPopulated(t *testing.T) {
	res, err := Run(smallExp(t, config.Lazy, "barnes", 500))
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, n := range res.Stats.ReadMissHist {
		total += n
	}
	if total != res.Stats.ReadMissCount {
		t.Errorf("histogram total %d != miss count %d", total, res.Stats.ReadMissCount)
	}
	if total == 0 {
		t.Error("no read misses recorded")
	}
}

// TestFaultRunEndsNearLastRetire pins that a fault run stops within one
// response deadline of its last retire. Retire cancels a transaction's
// pending deadlines, so no stale timer keeps the kernel (and its
// EndCycle monitors and interval sampler) ticking after the work is
// done; the last interval row marks the last executed event.
func TestFaultRunEndsNearLastRetire(t *testing.T) {
	plan, err := fault.ParsePlan("kind=drop,rate=0.02,seed=7;kind=delay,rate=0.05,delay=80,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1001); seed <= 1008; seed++ {
		exp := smallExp(t, config.SupersetAgg, "barnes", 16)
		exp.CheckInvariants = false
		exp.Seed = seed
		exp.Faults = plan
		exp.CheckEveryCycles = 5000
		var lastRow sim.Time
		exp.Telemetry = &telemetry.Config{OnRow: func(r telemetry.Row) { lastRow = sim.Time(r.Cycle) }}
		res, err := Run(exp)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		eng, err := protocol.NewEngine(sim.NewKernel(), protocol.Options{
			Machine: exp.Machine, Predictor: exp.Predictor,
			PolicyFor: func(int) core.Policy { return core.NewPolicy(exp.Algorithm) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if deadline := eng.TimeoutDeadline(); lastRow > res.Cycles+deadline {
			t.Errorf("seed %d: last interval row at cycle %d, %d cycles after the last retire at %d (deadline %d)",
				seed, lastRow, lastRow-res.Cycles, res.Cycles, deadline)
		}
	}
}
