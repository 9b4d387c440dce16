package flexsnoop_test

// BenchmarkGate is the workload behind cmd/bench, the paired benchmark
// gate of ci.sh. cmd/bench copies this file over an export of the parent
// commit, so both sides of a comparison run identical benchmark code: it
// must use only API the parent commit already has, and its identifiers
// must not collide with the parent's other _test.go files.
//
// Each sub-benchmark takes at least about 0.1 s per iteration, so one
// iteration (-test.benchtime 1x) is a usable sample:
//
//	go test -run '^$' -bench '^BenchmarkGate$' -benchtime 1x -benchmem

import (
	"context"
	"path/filepath"
	"testing"

	"flexsnoop"
)

func BenchmarkGate(b *testing.B) {
	ctx := context.Background()
	simulate := func(b *testing.B, alg flexsnoop.Algorithm, src flexsnoop.Source, opts flexsnoop.Options) {
		if _, err := flexsnoop.Simulate(ctx, alg, src, opts); err != nil {
			b.Fatal(err)
		}
	}

	// The Figure 6-9 matrix on two SPLASH-2 apps and both SPEC
	// workloads, every algorithm, one serial Simulate call per cell.
	b.Run("matrix-subset", func(b *testing.B) {
		b.ReportAllocs()
		opts := flexsnoop.Options{OpsPerCore: 200, Seed: 1}
		for i := 0; i < b.N; i++ {
			for _, alg := range flexsnoop.Algorithms() {
				for _, wl := range []string{"barnes", "fft", "specjbb", "specweb"} {
					simulate(b, alg, flexsnoop.FromWorkload(wl), opts)
				}
			}
		}
	})

	// The scaling study's largest machine: 16 CMPs on a 4x4 torus.
	b.Run("scaling-16cmp", func(b *testing.B) {
		b.ReportAllocs()
		opts := flexsnoop.Options{
			OpsPerCore: 300, Seed: 1,
			Tweak: func(m *flexsnoop.MachineConfig) {
				m.NumCMPs = 16
				m.TorusWidth, m.TorusHeight = 4, 4
			},
		}
		for i := 0; i < b.N; i++ {
			simulate(b, flexsnoop.SupersetAgg, flexsnoop.FromWorkload("barnes"), opts)
		}
	})

	// Trace-driven mode: replay a SPECjbb trace written before the
	// measured region.
	b.Run("trace-replay", func(b *testing.B) {
		b.ReportAllocs()
		path := filepath.Join(b.TempDir(), "specjbb.trace")
		if err := flexsnoop.WriteTraceFile(path, "specjbb", 3000, 1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			simulate(b, flexsnoop.Eager, flexsnoop.FromTraceFile(path), flexsnoop.Options{})
		}
	})

	// The hardened protocol: fault injection, snoop deadlines, the
	// watchdog and the continuous checker all armed.
	b.Run("fault-injected", func(b *testing.B) {
		b.ReportAllocs()
		plan, err := flexsnoop.ParseFaultPlan("kind=drop,rate=0.02,seed=7;kind=delay,rate=0.05,delay=80,seed=11")
		if err != nil {
			b.Fatal(err)
		}
		opts := flexsnoop.Options{OpsPerCore: 400, Seed: 1, Faults: plan, CheckEvery: 5000}
		for i := 0; i < b.N; i++ {
			simulate(b, flexsnoop.SupersetAgg, flexsnoop.FromWorkload("barnes"), opts)
		}
	})

	// The fixed cost of a small service job: one reference per core in
	// the shape of perfbench's svc-miss jobs, so nearly all the time is
	// building, checking and draining the machine.
	b.Run("small-job", func(b *testing.B) {
		b.ReportAllocs()
		plan, err := flexsnoop.ParseFaultPlan("kind=drop,rate=0.02,seed=7;kind=delay,rate=0.05,delay=80,seed=11")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			for seed := int64(1); seed <= 200; seed++ {
				opts := flexsnoop.Options{OpsPerCore: 1, Seed: seed, Faults: plan, CheckEvery: 5000}
				simulate(b, flexsnoop.SupersetAgg, flexsnoop.FromWorkload("barnes"), opts)
			}
		}
	})
}
