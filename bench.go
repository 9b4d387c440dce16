package flexsnoop

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// This file is the continuous-benchmark harness behind cmd/bench and the
// ci.sh bench step. It runs a fixed scenario set through testing.Benchmark
// so every PR records comparable wall-time and allocation numbers in a
// BENCH_<pr>.json artifact at the repository root.

// BenchConfig selects what RunBenchSuite measures.
type BenchConfig struct {
	// Short halves the per-scenario reference counts, for CI. The
	// matrix-subset scenario keeps its full size either way so its
	// allocs/op stay comparable across BENCH_*.json generations.
	Short bool
	// Scenarios, when non-empty, restricts the run to the named
	// scenarios (see BenchScenarios).
	Scenarios []string
	// ProfileDir, when non-empty, writes per-scenario CPU and heap
	// profiles (<dir>/<scenario>.cpu.prof, <dir>/<scenario>.mem.prof)
	// covering each scenario's measured region.
	ProfileDir string
	// GitCommit, when non-empty, is recorded in the artifact (cmd/bench
	// fills it from `git rev-parse`).
	GitCommit string
}

// BenchResult records one scenario's measurement. Allocation numbers come
// from testing.Benchmark's memory accounting (the -benchmem counters);
// SimCycles is the simulated time covered by one iteration, so
// CyclesPerSec is the simulator's throughput in simulated cycles per
// wall-clock second.
type BenchResult struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	SimCycles    uint64  `json:"sim_cycles"`
	CyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

// BenchSuite is the BENCH_<pr>.json document: the full scenario set from
// one RunBenchSuite call, plus the environment that produced it, so
// artifacts from different PRs are compared like for like.
type BenchSuite struct {
	GoVersion   string        `json:"go_version"`
	GitCommit   string        `json:"git_commit,omitempty"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	Short       bool          `json:"short"`
	GeneratedAt string        `json:"generated_at"`
	Results     []BenchResult `json:"results"`
}

// Result returns the named scenario's measurement.
func (s *BenchSuite) Result(name string) (BenchResult, bool) {
	for _, r := range s.Results {
		if r.Name == name {
			return r, true
		}
	}
	return BenchResult{}, false
}

// benchScenario is one fixed workload of the suite. setup runs once,
// outside the measured region, and returns the per-iteration body; the
// body returns the simulated cycles it covered.
type benchScenario struct {
	name  string
	ops   uint64 // reference count per core at full size
	fixed bool   // ops not halved in Short mode
	setup func(ops uint64) (func() (uint64, error), func(), error)
}

// benchScenarios returns the fixed scenario set, in run order.
func benchScenarios() []benchScenario {
	return []benchScenario{
		{
			// The figure-6..9 matrix restricted to two SPLASH-2 apps:
			// every algorithm over barnes, fft, SPECjbb and SPECweb.
			// This is the suite's headline allocs/op number, so its
			// size is fixed across Short and full runs.
			name: "matrix-subset", ops: 800, fixed: true,
			setup: func(ops uint64) (func() (uint64, error), func(), error) {
				opts := FigureOptions{OpsPerCore: ops, Seed: 1, Apps: []string{"barnes", "fft"}}
				return func() (uint64, error) {
					m, err := RunMatrix(opts)
					if err != nil {
						return 0, err
					}
					var cycles uint64
					for _, byWl := range m.results {
						for _, res := range byWl {
							cycles += uint64(res.Cycles)
						}
					}
					return cycles, nil
				}, nil, nil
			},
		},
		{
			// The largest machine of the scaling study: one 16-CMP run.
			name: "scaling-16cmp", ops: 600,
			setup: func(ops uint64) (func() (uint64, error), func(), error) {
				opts := Options{
					OpsPerCore: ops, Seed: 1,
					Tweak: func(m *MachineConfig) {
						m.NumCMPs = 16
						m.TorusWidth, m.TorusHeight = 4, 4
					},
				}
				return func() (uint64, error) {
					res, err := Simulate(context.Background(), SupersetAgg, FromWorkload("barnes"), opts)
					if err != nil {
						return 0, err
					}
					return uint64(res.Cycles), nil
				}, nil, nil
			},
		},
		{
			// Trace-driven mode: replay a recorded SPECjbb trace. The
			// trace is written once, outside the measured region.
			name: "trace-replay", ops: 1000,
			setup: func(ops uint64) (func() (uint64, error), func(), error) {
				dir, err := os.MkdirTemp("", "flexsnoop-bench")
				if err != nil {
					return nil, nil, err
				}
				path := filepath.Join(dir, "specjbb.trace")
				if err := WriteTraceFile(path, "specjbb", ops, 1); err != nil {
					os.RemoveAll(dir)
					return nil, nil, err
				}
				body := func() (uint64, error) {
					res, err := Simulate(context.Background(), Eager, FromTraceFile(path), Options{})
					if err != nil {
						return 0, err
					}
					return uint64(res.Cycles), nil
				}
				return body, func() { os.RemoveAll(dir) }, nil
			},
		},
		{
			// The hardened hot path: a run with fault injection, snoop
			// deadlines, the watchdog and the continuous checker all
			// armed, so the retransmit/timeout machinery shows up in the
			// throughput record. Drop and delay rates are kept low enough
			// that every transaction still completes.
			name: "fault-injected", ops: 800,
			setup: func(ops uint64) (func() (uint64, error), func(), error) {
				plan, err := ParseFaultPlan("kind=drop,rate=0.02,seed=7;kind=delay,rate=0.05,delay=80,seed=11")
				if err != nil {
					return nil, nil, err
				}
				opts := Options{
					OpsPerCore: ops, Seed: 1,
					Faults: plan, CheckEvery: 5000,
				}
				return func() (uint64, error) {
					res, err := Simulate(context.Background(), SupersetAgg, FromWorkload("barnes"), opts)
					if err != nil {
						return 0, err
					}
					return uint64(res.Cycles), nil
				}, nil, nil
			},
		},
	}
}

// BenchScenarios lists the scenario names RunBenchSuite measures by
// default, in run order.
func BenchScenarios() []string {
	var names []string
	for _, sc := range benchScenarios() {
		names = append(names, sc.name)
	}
	return names
}

// RunBenchSuite measures every scenario (or the cfg.Scenarios subset)
// with testing.Benchmark and returns the suite document for
// BENCH_*.json.
func RunBenchSuite(cfg BenchConfig) (*BenchSuite, error) {
	want := map[string]bool{}
	for _, n := range cfg.Scenarios {
		want[n] = true
	}
	suite := &BenchSuite{
		GoVersion:   runtime.Version(),
		GitCommit:   cfg.GitCommit,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Short:       cfg.Short,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	for _, sc := range benchScenarios() {
		if len(want) > 0 && !want[sc.name] {
			continue
		}
		ops := sc.ops
		if cfg.Short && !sc.fixed {
			ops /= 2
		}
		body, cleanup, err := sc.setup(ops)
		if err != nil {
			return nil, fmt.Errorf("flexsnoop: bench %s setup: %w", sc.name, err)
		}
		res, err := measureRow(cfg, sc.name, body)
		if cleanup != nil {
			cleanup()
		}
		if err != nil {
			return nil, err
		}
		suite.Results = append(suite.Results, res)
	}
	return suite, nil
}

// measureRow runs one scenario's testing.Benchmark, bracketed by the
// optional per-scenario CPU profile (heap profile written after the
// measured region).
func measureRow(cfg BenchConfig, name string, body func() (uint64, error)) (BenchResult, error) {
	var cpuFile *os.File
	if cfg.ProfileDir != "" {
		if err := os.MkdirAll(cfg.ProfileDir, 0o755); err != nil {
			return BenchResult{}, fmt.Errorf("flexsnoop: bench profile dir: %w", err)
		}
		f, err := os.Create(filepath.Join(cfg.ProfileDir, name+".cpu.prof"))
		if err != nil {
			return BenchResult{}, fmt.Errorf("flexsnoop: bench %s: %w", name, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return BenchResult{}, fmt.Errorf("flexsnoop: bench %s: %w", name, err)
		}
		cpuFile = f
	}
	var cycles uint64
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := body()
			if err != nil {
				runErr = err
				b.StopTimer()
				return
			}
			cycles = c
		}
	})
	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
		if err := writeHeapProfile(filepath.Join(cfg.ProfileDir, name+".mem.prof")); err != nil {
			return BenchResult{}, fmt.Errorf("flexsnoop: bench %s: %w", name, err)
		}
	}
	if runErr != nil {
		return BenchResult{}, fmt.Errorf("flexsnoop: bench %s: %w", name, runErr)
	}
	nsOp := r.NsPerOp()
	res := BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     nsOp,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		SimCycles:   cycles,
	}
	if nsOp > 0 {
		res.CyclesPerSec = float64(cycles) / (float64(nsOp) / 1e9)
	}
	return res, nil
}

// writeHeapProfile records an up-to-date allocation profile so the
// alloc_objects/alloc_space views cover the whole measured region.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.Lookup("allocs").WriteTo(f, 0)
}
