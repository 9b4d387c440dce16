// Command ringsim runs one simulation of the embedded-ring multiprocessor
// under a chosen snooping algorithm and workload, printing the run's
// metrics.
//
// Usage:
//
//	ringsim [-alg SupersetAgg] [-workload barnes] [-ops 3000] [-seed 1]
//	        [-predictor Sub2k|Supy2k|...] [-rings 2] [-noprefetch]
//	        [-check] [-replay file]
//	        [-faults "kind=drop,rate=0.05,seed=1;kind=delay,rate=0.1,delay=80"]
//	        [-checkevery N] [-watchdog N] [-degrade]
//	        [-trace out.json] [-traceformat chrome|jsonl] [-tracehops]
//	        [-metrics out.csv] [-interval N] [-chart out.svg]
//	        [-cpuprofile out.pprof] [-memprofile out.pprof]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"flexsnoop"
	"flexsnoop/internal/cli"
	"flexsnoop/internal/energy"
	"flexsnoop/internal/protocol"
	"flexsnoop/internal/stats"
)

// protocolHistLabel names a read-miss latency bucket.
func protocolHistLabel(i int) string { return protocol.HistBucketLabel(i) }

var (
	algFlag    = flag.String("alg", "SupersetAgg", "snooping algorithm (Lazy, Eager, Oracle, Subset, SupersetCon, SupersetAgg, Exact, DynamicSuperset)")
	wlFlag     = flag.String("workload", "barnes", "workload name (see -list)")
	opsFlag    = flag.Uint64("ops", 3000, "memory references per core")
	seedFlag   = flag.Int64("seed", 1, "workload seed")
	predFlag   = flag.String("predictor", "", "supplier predictor override (Sub512..Exa8k)")
	ringsFlag  = flag.Int("rings", 0, "number of embedded rings (0 = default 2)")
	noPrefetch = flag.Bool("noprefetch", false, "disable the prefetch-on-snoop heuristic")
	checkFlag  = flag.Bool("check", false, "run the coherence invariant checker")
	replayFlag = flag.String("replay", "", "replay a trace file instead of a synthetic workload")
	budgetFlag = flag.Float64("budget", 0, "DynamicSuperset energy budget (nJ per 1000 cycles)")
	listFlag   = flag.Bool("list", false, "list workloads and predictors, then exit")
	jsonFlag   = flag.Bool("json", false, "emit the result as JSON instead of a table")

	// Robustness: deterministic fault injection and the layers that make
	// injected faults survivable (see DESIGN.md §8).
	faultsFlag = flag.String("faults", "", "fault plan, e.g. \"kind=drop,rate=0.05,seed=1;kind=delay,rate=0.1,delay=80,seed=2\"")
	checkEvery = flag.Uint64("checkevery", 0, "run the full invariant checker every N cycles (0 = off)")
	watchdog   = flag.Uint64("watchdog", 0, "watchdog window in cycles (0 = default; armed automatically under -faults)")
	degrade    = flag.Bool("degrade", false, "degrade gracefully on a watchdog verdict (force Eager forwarding) instead of failing fast")

	// Telemetry outputs (the run is cycle-identical with or without them).
	traceOut   = flag.String("trace", "", "write a per-transaction event trace to this file")
	traceFmt   = flag.String("traceformat", "chrome", "trace format: chrome (Perfetto-loadable) or jsonl")
	traceHops  = flag.Bool("tracehops", false, "include per-ring-hop instants in the trace (verbose)")
	metricsOut = flag.String("metrics", "", "write interval time-series metrics CSV to this file")
	interval   = flag.Uint64("interval", 0, "metrics sampling interval in cycles (0 = default 5000)")
	chartOut   = flag.String("chart", "", "write an SVG chart of the interval metrics to this file")

	// Profiling of the simulator itself.
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the simulator to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile of the simulator to this file")
)

func main() {
	flag.Parse()
	if *listFlag {
		fmt.Println("workloads:")
		for _, w := range flexsnoop.Workloads() {
			fmt.Println("  " + w)
		}
		fmt.Println("predictors:")
		for name := range flexsnoop.Predictors() {
			fmt.Println("  " + name)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ringsim:", err)
		os.Exit(cli.ExitCode(err))
	}
}

func run() error {
	alg, err := flexsnoop.ParseAlgorithm(*algFlag)
	if err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := cli.CreateFile(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	opts := flexsnoop.Options{
		OpsPerCore:                *opsFlag,
		Seed:                      *seedFlag,
		CheckInvariants:           *checkFlag,
		DisablePrefetch:           *noPrefetch,
		NumRings:                  *ringsFlag,
		GovernorBudgetNJPerKCycle: *budgetFlag,
		CheckEvery:                *checkEvery,
		WatchdogWindow:            *watchdog,
		WatchdogDegrade:           *degrade,
	}
	if *faultsFlag != "" {
		plan, err := flexsnoop.ParseFaultPlan(*faultsFlag)
		if err != nil {
			return err
		}
		opts.Faults = plan
	}
	if *predFlag != "" {
		p, ok := flexsnoop.Predictors()[*predFlag]
		if !ok {
			return fmt.Errorf("unknown predictor %q (try -list)", *predFlag)
		}
		opts.Predictor = &p
	}
	tel, closeTel, err := telemetryFromFlags()
	if err != nil {
		closeTel()
		return err
	}
	opts.Telemetry = tel

	var res flexsnoop.Result
	src := flexsnoop.FromWorkload(*wlFlag)
	if *replayFlag != "" {
		src = flexsnoop.FromTraceFile(*replayFlag)
	}
	res, err = flexsnoop.Simulate(context.Background(), alg, src, opts)
	if cerr := closeTel(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if *memProfile != "" {
		f, err := cli.CreateFile(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	if *jsonFlag {
		return printJSON(res)
	}
	print(res)
	return nil
}

// telemetryFromFlags builds the telemetry configuration from the -trace,
// -metrics, -interval and -chart flags, returning nil options when no
// output is requested. The returned func closes every opened file.
func telemetryFromFlags() (*flexsnoop.TelemetryOptions, func() error, error) {
	noop := func() error { return nil }
	if *traceOut == "" && *metricsOut == "" && *chartOut == "" {
		return nil, noop, nil
	}
	switch *traceFmt {
	case flexsnoop.TraceFormatChrome, flexsnoop.TraceFormatJSONL:
	default:
		return nil, noop, fmt.Errorf("unknown -traceformat %q (want %s or %s)",
			*traceFmt, flexsnoop.TraceFormatChrome, flexsnoop.TraceFormatJSONL)
	}
	tel := &flexsnoop.TelemetryOptions{
		TraceFormat:    *traceFmt,
		TraceHops:      *traceHops,
		IntervalCycles: *interval,
	}
	var files []*os.File
	open := func(path string, dst *io.Writer) error {
		if path == "" {
			return nil
		}
		f, err := cli.CreateFile(path)
		if err != nil {
			return err
		}
		files = append(files, f)
		*dst = f
		return nil
	}
	closeAll := func() error {
		var err error
		for _, f := range files {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}
	if err := open(*traceOut, &tel.Trace); err != nil {
		return nil, closeAll, err
	}
	if err := open(*metricsOut, &tel.Metrics); err != nil {
		return nil, closeAll, err
	}
	if err := open(*chartOut, &tel.Chart); err != nil {
		return nil, closeAll, err
	}
	return tel, closeAll, nil
}

// jsonReport is the machine-readable result shape.
type jsonReport struct {
	Algorithm              string             `json:"algorithm"`
	Workload               string             `json:"workload"`
	Predictor              string             `json:"predictor"`
	Cycles                 uint64             `json:"cycles"`
	Instructions           uint64             `json:"instructions"`
	IPC                    float64            `json:"ipc"`
	SnoopsPerReadRequest   float64            `json:"snoops_per_read_request"`
	SegmentsPerReadRequest float64            `json:"ring_segments_per_read_request"`
	AvgReadMissLatency     float64            `json:"avg_read_miss_latency_cycles"`
	ReadRequests           uint64             `json:"read_requests"`
	WriteRequests          uint64             `json:"write_requests"`
	LocalSupplies          uint64             `json:"local_supplies"`
	CacheSupplies          uint64             `json:"cache_supplies"`
	MemorySupplies         uint64             `json:"memory_supplies"`
	Squashes               uint64             `json:"squashes"`
	Retries                uint64             `json:"retries"`
	UseOnceReads           uint64             `json:"use_once_reads"`
	Downgrades             uint64             `json:"downgrades"`
	PrefetchHits           uint64             `json:"prefetch_hits"`
	EnergyNJ               float64            `json:"energy_nj"`
	EnergyBreakdownNJ      map[string]float64 `json:"energy_breakdown_nj"`
	PredictorTP            float64            `json:"predictor_tp"`
	PredictorTN            float64            `json:"predictor_tn"`
	PredictorFP            float64            `json:"predictor_fp"`
	PredictorFN            float64            `json:"predictor_fn"`
	GovernorAggressiveFrac float64            `json:"governor_aggressive_frac,omitempty"`

	// Fault-injection counters (only populated under -faults).
	FaultDrops    uint64 `json:"fault_drops,omitempty"`
	FaultDups     uint64 `json:"fault_dups,omitempty"`
	FaultDelays   uint64 `json:"fault_delays,omitempty"`
	FaultStalls   uint64 `json:"fault_stalls,omitempty"`
	SnoopTimeouts uint64 `json:"snoop_timeouts,omitempty"`
	DegradedLines uint64 `json:"degraded_lines,omitempty"`
}

func printJSON(r flexsnoop.Result) error {
	s := r.Stats
	tp, tn, fp, fn := s.Accuracy.Fractions()
	breakdown := map[string]float64{}
	for c, v := range r.EnergyBreakdown {
		breakdown[c.String()] = v
	}
	rep := jsonReport{
		Algorithm: r.Algorithm.String(), Workload: r.Workload, Predictor: r.Predictor,
		Cycles: uint64(r.Cycles), Instructions: r.Instructions, IPC: r.IPC,
		SnoopsPerReadRequest:   s.SnoopsPerReadRequest(),
		SegmentsPerReadRequest: s.ReadSegmentsPerRequest(),
		AvgReadMissLatency:     s.AvgReadMissLatency(),
		ReadRequests:           s.ReadRequests, WriteRequests: s.WriteRequests,
		LocalSupplies: s.LocalSupplies, CacheSupplies: s.CacheSupplies,
		MemorySupplies: s.MemorySupplies,
		Squashes:       s.Squashes, Retries: s.Retries, UseOnceReads: s.UseOnceReads,
		Downgrades: s.Downgrades, PrefetchHits: s.PrefetchHits,
		EnergyNJ: r.EnergyNJ, EnergyBreakdownNJ: breakdown,
		PredictorTP: tp, PredictorTN: tn, PredictorFP: fp, PredictorFN: fn,
		GovernorAggressiveFrac: r.GovernorAggFrac,
		FaultDrops:             s.FaultDrops, FaultDups: s.FaultDups,
		FaultDelays: s.FaultDelays, FaultStalls: s.FaultStalls,
		SnoopTimeouts: s.SnoopTimeouts, DegradedLines: s.DegradedLines,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func print(r flexsnoop.Result) {
	t := stats.NewTable(fmt.Sprintf("%v on %s (predictor %s)", r.Algorithm, r.Workload, r.Predictor),
		"Metric", "Value")
	t.AddRowf("Execution time (cycles)", fmt.Sprintf("%d", r.Cycles))
	t.AddRowf("Instructions", fmt.Sprintf("%d", r.Instructions))
	t.AddRowf("Aggregate IPC", r.IPC)
	s := r.Stats
	t.AddRowf("Ring read requests", fmt.Sprintf("%d", s.ReadRequests))
	t.AddRowf("Ring write requests", fmt.Sprintf("%d", s.WriteRequests))
	t.AddRowf("Snoops per read request", s.SnoopsPerReadRequest())
	t.AddRowf("Ring segments per read request", s.ReadSegmentsPerRequest())
	t.AddRowf("Avg off-chip read-miss latency (cycles)", s.AvgReadMissLatency())
	t.AddRowf("Supply: local / cache / memory",
		fmt.Sprintf("%d / %d / %d", s.LocalSupplies, s.CacheSupplies, s.MemorySupplies))
	t.AddRowf("Squashes / retries", fmt.Sprintf("%d / %d", s.Squashes, s.Retries))
	if s.FaultDrops+s.FaultDups+s.FaultDelays+s.FaultStalls > 0 {
		t.AddRowf("Faults: drop / dup / delay / stall",
			fmt.Sprintf("%d / %d / %d / %d", s.FaultDrops, s.FaultDups, s.FaultDelays, s.FaultStalls))
		t.AddRowf("Snoop timeouts / degraded lines",
			fmt.Sprintf("%d / %d", s.SnoopTimeouts, s.DegradedLines))
	}
	t.AddRowf("Prefetch hits / prefetches", fmt.Sprintf("%d / %d", s.PrefetchHits, s.Prefetches))
	t.AddRowf("Downgrades (Exact)", fmt.Sprintf("%d", s.Downgrades))
	if s.Accuracy.Total() > 0 {
		tp, tn, fp, fn := s.Accuracy.Fractions()
		t.AddRowf("Predictor TP/TN/FP/FN", fmt.Sprintf("%.3f/%.3f/%.3f/%.3f", tp, tn, fp, fn))
	}
	// Read-miss latency histogram (off-chip misses).
	for i, n := range s.ReadMissHist {
		if n > 0 {
			t.AddRowf("  miss latency "+protocolHistLabel(i)+" cyc", fmt.Sprintf("%d", n))
		}
	}
	t.AddRowf("Snoop energy (nJ)", r.EnergyNJ)
	for _, c := range energy.Categories() {
		if v := r.EnergyBreakdown[c]; v > 0 {
			t.AddRowf("  "+c.String()+" (nJ)", v)
		}
	}
	if r.GovernorAggFrac > 0 {
		t.AddRowf("Governor aggressive fraction", r.GovernorAggFrac)
	}
	fmt.Println(t)
}
