package flexsnoop_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablation benches for the design choices
// DESIGN.md calls out. Each benchmark both measures the simulator's own
// throughput and reports the reproduced experimental quantities via
// b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates (a scaled-down version of) every result. cmd/paperfigs runs
// the full-size versions.

import (
	"context"
	"fmt"
	"testing"

	"flexsnoop"
)

// benchFigOpts keeps benchmark iterations tractable: two SPLASH-2 apps
// stand in for the suite; cmd/paperfigs runs all 11.
func benchFigOpts() flexsnoop.FigureOptions {
	return flexsnoop.FigureOptions{
		OpsPerCore: 800,
		Seed:       1,
		Apps:       []string{"barnes", "fft"},
	}
}

func BenchmarkTable1(b *testing.B) {
	var lazySnoops float64
	for i := 0; i < b.N; i++ {
		rows := flexsnoop.Table1()
		if len(rows) != 3 {
			b.Fatalf("Table 1 has %d rows, want 3", len(rows))
		}
		lazySnoops = rows[0].SnoopOps
	}
	b.ReportMetric(lazySnoops, "lazy-snoops/req")
}

func BenchmarkTable3(b *testing.B) {
	var conSnoops float64
	for i := 0; i < b.N; i++ {
		rows := flexsnoop.Table3(0.3, 0.02)
		if len(rows) != 4 {
			b.Fatalf("Table 3 has %d rows, want 4", len(rows))
		}
		for _, r := range rows {
			if r.Algorithm == flexsnoop.SupersetCon {
				conSnoops = r.SnoopOps
			}
		}
	}
	b.ReportMetric(conSnoops, "supersetcon-snoops/req")
}

func BenchmarkFig4DesignSpace(b *testing.B) {
	var pts int
	for i := 0; i < b.N; i++ {
		pts = len(flexsnoop.DesignSpace(0.3, 0.02))
	}
	b.ReportMetric(float64(pts), "algorithms")
}

// benchMatrix runs the shared algorithm x workload matrix behind Figures
// 6-9 once per iteration and returns the last one.
func benchMatrix(b *testing.B) *flexsnoop.Matrix {
	b.Helper()
	var m *flexsnoop.Matrix
	for i := 0; i < b.N; i++ {
		var err error
		m, err = flexsnoop.RunMatrix(benchFigOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	return m
}

func BenchmarkFig6SnoopsPerRequest(b *testing.B) {
	m := benchMatrix(b)
	fig := m.Figure6()
	for _, cv := range fig {
		b.ReportMetric(cv.Values[flexsnoop.Lazy.String()], "lazy-"+cv.Class)
		b.ReportMetric(cv.Values[flexsnoop.Eager.String()], "eager-"+cv.Class)
	}
}

func BenchmarkFig7RingMessages(b *testing.B) {
	m := benchMatrix(b)
	fig, err := m.Figure7()
	if err != nil {
		b.Fatal(err)
	}
	for _, cv := range fig {
		b.ReportMetric(cv.Values[flexsnoop.Eager.String()], "eager-norm-"+cv.Class)
	}
}

func BenchmarkFig8ExecutionTime(b *testing.B) {
	m := benchMatrix(b)
	fig, err := m.Figure8()
	if err != nil {
		b.Fatal(err)
	}
	for _, cv := range fig {
		b.ReportMetric(cv.Values[flexsnoop.SupersetAgg.String()], "supersetagg-norm-"+cv.Class)
	}
}

func BenchmarkFig9Energy(b *testing.B) {
	m := benchMatrix(b)
	fig, err := m.Figure9()
	if err != nil {
		b.Fatal(err)
	}
	for _, cv := range fig {
		b.ReportMetric(cv.Values[flexsnoop.Eager.String()], "eager-norm-"+cv.Class)
		b.ReportMetric(cv.Values[flexsnoop.SupersetCon.String()], "supersetcon-norm-"+cv.Class)
	}
}

func BenchmarkFig10Sensitivity(b *testing.B) {
	opts := benchFigOpts()
	opts.Apps = []string{"barnes"}
	var s *flexsnoop.Sensitivity
	for i := 0; i < b.N; i++ {
		var err error
		s, err = flexsnoop.RunSensitivity(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range s.Cells {
		if c.Algorithm == flexsnoop.Exact && c.Class == "SPLASH-2" && c.Predictor == "Exa512" {
			b.ReportMetric(c.CyclesNorm, "exact-exa512-norm")
		}
	}
}

func BenchmarkFig11Accuracy(b *testing.B) {
	opts := benchFigOpts()
	opts.Apps = []string{"barnes"}
	var s *flexsnoop.Sensitivity
	for i := 0; i < b.N; i++ {
		var err error
		s, err = flexsnoop.RunSensitivity(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	if p, ok := s.Perfect["SPLASH-2"]; ok {
		b.ReportMetric(p[0], "perfect-tp")
		b.ReportMetric(p[1], "perfect-tn")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// memory references per wall-clock second under the densest algorithm.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var refs uint64
	for i := 0; i < b.N; i++ {
		res, err := flexsnoop.Simulate(context.Background(), flexsnoop.Eager, flexsnoop.FromWorkload("fft"), flexsnoop.Options{OpsPerCore: 1000})
		if err != nil {
			b.Fatal(err)
		}
		refs = res.Stats.Loads + res.Stats.Stores
	}
	b.ReportMetric(float64(refs), "refs/iter")
}

// --- Ablation benches (design choices from DESIGN.md Section 6) ---

// BenchmarkAblationRings compares one vs two embedded rings (the paper
// embeds two, mapped by address, to balance load).
func BenchmarkAblationRings(b *testing.B) {
	for _, rings := range []int{1, 2} {
		rings := rings
		name := map[int]string{1: "one-ring", 2: "two-rings"}[rings]
		b.Run(name, func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				res, err := flexsnoop.Simulate(context.Background(), flexsnoop.Eager, flexsnoop.FromWorkload("radix"), flexsnoop.Options{
					OpsPerCore: 1200, NumRings: rings,
				})
				if err != nil {
					b.Fatal(err)
				}
				cycles = float64(res.Cycles)
			}
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkAblationPrefetch quantifies the prefetch-on-snoop heuristic on
// a memory-bound workload (312 vs 710-cycle remote round trips).
func BenchmarkAblationPrefetch(b *testing.B) {
	for _, off := range []bool{false, true} {
		off := off
		name := map[bool]string{false: "prefetch-on", true: "prefetch-off"}[off]
		b.Run(name, func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				res, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("specjbb"), flexsnoop.Options{
					OpsPerCore: 1500, DisablePrefetch: off,
				})
				if err != nil {
					b.Fatal(err)
				}
				cycles = float64(res.Cycles)
			}
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkAblationExcludeCache isolates the JETTY-style exclude cache's
// contribution to the superset predictor (Section 4.3.2).
func BenchmarkAblationExcludeCache(b *testing.B) {
	preds := flexsnoop.Predictors()
	with := preds["Supy2k"]
	without := with
	without.ExcludeCache = false
	without.Name = "Supy2k-noexclude"
	for _, pc := range []flexsnoop.PredictorConfig{with, without} {
		pc := pc
		b.Run(pc.Name, func(b *testing.B) {
			var fp float64
			for i := 0; i < b.N; i++ {
				res, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetCon, flexsnoop.FromWorkload("barnes"), flexsnoop.Options{
					OpsPerCore: 1200, Predictor: &pc,
				})
				if err != nil {
					b.Fatal(err)
				}
				_, _, fpf, _ := res.Stats.Accuracy.Fractions()
				fp = fpf
			}
			b.ReportMetric(fp, "false-positive-frac")
		})
	}
}

// BenchmarkAblationDynamicGovernor sweeps the Section 6.1.5 adaptive
// system's energy budget.
func BenchmarkAblationDynamicGovernor(b *testing.B) {
	for _, budget := range []float64{1e9, 10, 0.5} {
		budget := budget
		b.Run(map[float64]string{1e9: "budget-unbounded", 10: "budget-10", 0.5: "budget-tight"}[budget], func(b *testing.B) {
			var aggFrac float64
			for i := 0; i < b.N; i++ {
				res, err := flexsnoop.Simulate(context.Background(), flexsnoop.DynamicSuperset, flexsnoop.FromWorkload("barnes"), flexsnoop.Options{
					OpsPerCore: 1200, GovernorBudgetNJPerKCycle: budget,
				})
				if err != nil {
					b.Fatal(err)
				}
				aggFrac = res.GovernorAggFrac
			}
			b.ReportMetric(aggFrac, "aggressive-frac")
		})
	}
}

// BenchmarkAblationMLP compares in-order blocking loads against an
// out-of-order-style 4-deep load window (DESIGN.md substitution: the
// paper's cores are out of order; this quantifies how much the timing
// simplification matters for the algorithm ordering).
func BenchmarkAblationMLP(b *testing.B) {
	for _, mlp := range []int{1, 4} {
		mlp := mlp
		b.Run(map[int]string{1: "blocking-loads", 4: "mlp-4"}[mlp], func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				res, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("ocean"), flexsnoop.Options{
					OpsPerCore: 1200,
					Tweak:      func(m *flexsnoop.MachineConfig) { m.MaxOutstandingLoads = mlp },
				})
				if err != nil {
					b.Fatal(err)
				}
				cycles = float64(res.Cycles)
			}
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkAblationLocalMaster quantifies the S_L (Local Master) state:
// without it, a line brought into a CMP by one core cannot supply its
// siblings, so their reads pay full ring transactions (Section 2.2's
// motivation for S_L).
func BenchmarkAblationLocalMaster(b *testing.B) {
	for _, off := range []bool{false, true} {
		off := off
		b.Run(map[bool]string{false: "with-SL", true: "without-SL"}[off], func(b *testing.B) {
			var ringReads float64
			for i := 0; i < b.N; i++ {
				res, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("barnes"), flexsnoop.Options{
					OpsPerCore: 1200,
					Tweak:      func(m *flexsnoop.MachineConfig) { m.DisableLocalMaster = off },
				})
				if err != nil {
					b.Fatal(err)
				}
				ringReads = float64(res.Stats.ReadRequests)
			}
			b.ReportMetric(ringReads, "ring-reads")
		})
	}
}

// BenchmarkScalingStudy sweeps ring sizes 4/8/16 (the paper's "appropriate
// for medium-range machines" positioning), reporting how Lazy's miss
// latency grows with every hop-plus-snoop added to the ring.
func BenchmarkScalingStudy(b *testing.B) {
	var pts []flexsnoop.ScalingPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = flexsnoop.ScalingStudy(flexsnoop.Lazy, "barnes", flexsnoop.FigureOptions{OpsPerCore: 800})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.AvgReadMissLatency, fmt.Sprintf("lazy-miss-latency-%dcmp", p.NumCMPs))
	}
}

// BenchmarkAlternativeProtocols compares the embedded ring against the
// Section 2.1 alternatives (directory indirection, broadcast-bus
// saturation) implemented in internal/altproto; see examples/alternatives
// for the full comparison.
func BenchmarkAlternativeProtocols(b *testing.B) {
	var cycles float64
	for i := 0; i < b.N; i++ {
		res, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("barnes"), flexsnoop.Options{OpsPerCore: 1200})
		if err != nil {
			b.Fatal(err)
		}
		cycles = float64(res.Cycles)
	}
	b.ReportMetric(cycles, "ring-supersetagg-cycles")
}
