// Package machine assembles the full simulated multiprocessor — kernel,
// coherence engine, timing cores and workload sources — and runs complete
// experiments, producing the per-run metrics behind every figure of the
// evaluation.
package machine

import (
	"context"
	"fmt"
	"math"

	"flexsnoop/internal/checker"
	"flexsnoop/internal/config"
	"flexsnoop/internal/core"
	"flexsnoop/internal/cpu"
	"flexsnoop/internal/energy"
	"flexsnoop/internal/fault"
	"flexsnoop/internal/protocol"
	"flexsnoop/internal/sim"
	"flexsnoop/internal/telemetry"
	"flexsnoop/internal/workload"
)

// GovernorConfig tunes the dynamic SupersetAgg/SupersetCon switcher — the
// adaptive system the paper envisions in Section 6.1.5.
type GovernorConfig struct {
	// BudgetNJPerKCycle is the snoop-energy budget; above it the system
	// switches to the SupersetCon action, below it back to SupersetAgg.
	BudgetNJPerKCycle float64
	// IntervalCycles is how often the governor re-evaluates.
	IntervalCycles sim.Time
}

// DefaultGovernor returns a governor that re-evaluates every 20k cycles.
func DefaultGovernor(budgetNJPerKCycle float64) *GovernorConfig {
	return &GovernorConfig{BudgetNJPerKCycle: budgetNJPerKCycle, IntervalCycles: 20000}
}

// Experiment describes one simulation run.
type Experiment struct {
	Machine   config.MachineConfig
	Algorithm config.Algorithm
	// AlgorithmPerNode, when non-empty, gives each CMP node its own
	// snooping policy (the paper notes a message may be split and
	// recombined multiple times when nodes choose different primitives).
	// Length must equal Machine.NumCMPs; Algorithm then only labels the
	// result.
	AlgorithmPerNode []config.Algorithm
	Predictor        config.PredictorConfig
	Energy           energy.Params
	Workload         workload.Profile

	// OpsPerCore bounds each core's reference stream (generator mode).
	OpsPerCore uint64
	Seed       int64

	// Traces, when non-nil, replaces the generators: stream i drives
	// global core i (trace-driven mode, as the paper's SPEC runs).
	Traces [][]workload.Op

	// CheckInvariants arms the coherence checker every 64 retired
	// transactions, on CheckEveryCycles' hook (checker.Checker.Arm).
	CheckInvariants bool

	// Governor enables the dynamic adaptive system; only meaningful with
	// Algorithm == config.DynamicSuperset.
	Governor *GovernorConfig

	// MaxCycles aborts runaway simulations.
	MaxCycles sim.Time

	// WarmupCycles discards all statistics and energy accumulated before
	// this cycle: the reported Result covers only the steady-state
	// measurement window (caches and predictors stay warm).
	WarmupCycles sim.Time

	// Telemetry, when enabled, records transaction traces and interval
	// metrics for the run. Telemetry never perturbs simulated timing:
	// results are identical with it on or off.
	Telemetry *telemetry.Config

	// Context, when non-nil, allows cancelling the run between simulated
	// events. A nil or never-cancellable context (Background) costs
	// nothing: the kernel's interrupt hook is installed only when the
	// context can actually be cancelled, and an installed-but-quiet hook
	// leaves the simulation cycle-identical.
	Context context.Context

	// Faults, when it carries rules, injects deterministic link faults
	// and arms the engine's timeout/retransmit recovery plus the
	// no-progress watchdog (see protocol.Options.Faults). Nil leaves the
	// run cycle-identical to a fault-free build.
	Faults *fault.Plan

	// CheckEveryCycles runs the full coherence invariant checker every N
	// cycles during the run; a violation of either cadence fails the run
	// at the cycle it is found instead of at end of run. Zero disables it.
	CheckEveryCycles sim.Time

	// WatchdogWindow overrides the no-forward-progress window (cycles).
	// Zero picks a default sized from the engine's response deadline. The
	// watchdog arms whenever faults are enabled or a window is set.
	WatchdogWindow sim.Time

	// WatchdogDegrade makes the watchdog degrade gracefully — force
	// Eager forwarding on stalled lines — before failing fast.
	WatchdogDegrade bool
}

// New returns an experiment with Table 4 defaults for an algorithm and
// workload: the Section 6.1 predictor, the paper's per-class core count,
// and the published energy constants.
func New(alg config.Algorithm, prof workload.Profile) Experiment {
	m := config.DefaultMachine()
	m.CoresPerCMP = prof.Class.CoresPerCMP()
	return Experiment{
		Machine:    m,
		Algorithm:  alg,
		Predictor:  config.DefaultPredictorFor(alg),
		Energy:     energy.DefaultParams(),
		Workload:   prof,
		OpsPerCore: 3000,
		Seed:       1,
		MaxCycles:  2_000_000_000,
	}
}

// Result is the outcome of one run.
type Result struct {
	Algorithm config.Algorithm
	Workload  string
	Predictor string

	// Cycles is the execution time: the cycle the last core retired.
	Cycles       sim.Time
	Instructions uint64
	IPC          float64

	Stats protocol.Stats

	// EnergyNJ is the snoop-servicing energy of Section 6.1.4.
	EnergyNJ        float64
	EnergyBreakdown map[energy.Category]float64

	// GovernorAggFrac is the fraction of predictor decisions taken in
	// aggressive mode (dynamic runs only).
	GovernorAggFrac float64

	// WarmupCycles echoes the experiment's measurement-window start.
	WarmupCycles sim.Time
}

// Run executes the experiment.
func Run(exp Experiment) (Result, error) {
	if err := exp.Workload.Validate(); err != nil {
		return Result{}, err
	}
	if exp.OpsPerCore == 0 && exp.Traces == nil {
		return Result{}, fmt.Errorf("machine: experiment has no work")
	}

	if len(exp.AlgorithmPerNode) != 0 && len(exp.AlgorithmPerNode) != exp.Machine.NumCMPs {
		return Result{}, fmt.Errorf("machine: %d per-node algorithms for %d CMPs",
			len(exp.AlgorithmPerNode), exp.Machine.NumCMPs)
	}
	kern := sim.NewKernel()
	dynamics := make([]*core.DynamicSuperset, 0)
	policies := make([]core.Policy, exp.Machine.NumCMPs)
	for i := range policies {
		alg := exp.Algorithm
		if len(exp.AlgorithmPerNode) > 0 {
			alg = exp.AlgorithmPerNode[i]
		}
		p := core.NewPolicy(alg)
		if d, ok := p.(*core.DynamicSuperset); ok {
			dynamics = append(dynamics, d)
		}
		policies[i] = p
	}

	eng, err := protocol.NewEngine(kern, protocol.Options{
		Machine:      exp.Machine,
		Predictor:    exp.Predictor,
		PolicyFor:    func(i int) core.Policy { return policies[i] },
		Energy:       exp.Energy,
		Faults:       exp.Faults,
		LinesPerCore: exp.linesPerCore(),
	})
	if err != nil {
		return Result{}, err
	}
	// One checker serves the run's in-run checks and its drained check,
	// so its gather slice is grown once per run.
	chk := checker.New(eng)

	var col *telemetry.Collector
	if exp.Telemetry.Enabled() {
		col = telemetry.New(*exp.Telemetry)
		eng.SetTelemetry(col)
		col.InstallKernelProbe(kern, func() telemetry.Sample {
			s := eng.TelemetrySample()
			s.EventsExecuted = kern.Executed
			s.QueueDepth = kern.Pending()
			return s
		})
	}

	// The checker, then the watchdog, chain onto the engine's EndCycle
	// hook; both only inspect, so arming them moves no events.
	var checkRetires uint64
	if exp.CheckInvariants {
		checkRetires = 64
	}
	chk.Arm(kern, checkRetires, exp.CheckEveryCycles)
	if eng.FaultsEnabled() || exp.WatchdogWindow > 0 {
		installWatchdog(kern, eng, col, exp.WatchdogWindow, exp.WatchdogDegrade)
	}

	totalCores := exp.Machine.TotalCores()
	cores := make([]*cpu.Core, 0, totalCores)
	remaining := totalCores
	coreDone := func() { remaining-- }
	for n := 0; n < exp.Machine.NumCMPs; n++ {
		for c := 0; c < exp.Machine.CoresPerCMP; c++ {
			g := n*exp.Machine.CoresPerCMP + c
			var src workload.Source
			if exp.Traces != nil {
				var ops []workload.Op
				if g < len(exp.Traces) {
					ops = exp.Traces[g]
				}
				src = workload.NewSliceSource(ops)
			} else {
				src = workload.NewGenerator(exp.Workload, g, exp.OpsPerCore, exp.Seed)
			}
			cr := cpu.NewMLP(kern, eng, n, c, exp.Machine.WriteBufferEntries, exp.Machine.MaxOutstandingLoads, src, coreDone)
			cores = append(cores, cr)
		}
	}
	for _, c := range cores {
		c.Start()
	}

	if exp.Governor != nil && len(dynamics) > 0 {
		startGovernor(kern, eng, dynamics, *exp.Governor)
	}

	var warmStats protocol.Stats
	var warmNJ float64
	var warmBreakdown map[energy.Category]float64
	if exp.WarmupCycles > 0 {
		kern.Schedule(exp.WarmupCycles, func() {
			warmStats = eng.Stats()
			warmNJ = eng.Meter().TotalNJ()
			warmBreakdown = eng.Meter().Breakdown()
		})
	}

	max := exp.MaxCycles
	if max == 0 {
		max = 2_000_000_000
	}
	if ctx := exp.Context; ctx != nil && ctx.Done() != nil {
		kern.Interrupt = ctx.Err
	}
	kern.Run(max)
	if cerr := kern.Err(); cerr != nil {
		// Cancelled mid-run: flush whatever telemetry exists, then report
		// the context's error (matchable with errors.Is).
		col.Close(kern.Now())
		return Result{}, fmt.Errorf("machine: run cancelled: %w", cerr)
	}
	if ferr := eng.Failure(); ferr != nil {
		// Watchdog verdict, checker violation or retransmit exhaustion:
		// flush telemetry (it carries the dump) and fail.
		col.Close(kern.Now())
		return Result{}, ferr
	}
	if err := col.Close(kern.Now()); err != nil {
		return Result{}, fmt.Errorf("machine: %w", err)
	}
	if remaining != 0 {
		return Result{}, fmt.Errorf("machine: %d cores unfinished at cycle limit %d", remaining, max)
	}
	if eng.FaultsEnabled() {
		// Timeout-retired transactions leave orphaned per-node message
		// bookkeeping behind; with the queue drained nothing references
		// it, so reclaim before the drain check.
		eng.ScavengeOrphanStates()
	}
	if err := chk.CheckDrained(); err != nil {
		return Result{}, fmt.Errorf("machine: post-run check: %w", err)
	}

	res := Result{
		Algorithm:       exp.Algorithm,
		Workload:        exp.Workload.Name,
		Predictor:       exp.Predictor.Name,
		Stats:           eng.Stats(),
		EnergyNJ:        eng.Meter().TotalNJ(),
		EnergyBreakdown: eng.Meter().Breakdown(),
		WarmupCycles:    exp.WarmupCycles,
	}
	for _, c := range cores {
		if c.FinishedAt > res.Cycles {
			res.Cycles = c.FinishedAt
		}
		res.Instructions += c.Instructions
	}
	if exp.WarmupCycles > 0 {
		if res.Cycles <= exp.WarmupCycles {
			return Result{}, fmt.Errorf("machine: run finished at cycle %d, inside the %d-cycle warmup",
				res.Cycles, exp.WarmupCycles)
		}
		res.Stats = res.Stats.Sub(warmStats)
		res.EnergyNJ -= warmNJ
		for c, v := range warmBreakdown {
			res.EnergyBreakdown[c] -= v
		}
		res.Cycles -= exp.WarmupCycles
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	var agg, con uint64
	for _, d := range dynamics {
		agg += d.AggDecisions
		con += d.ConDecisions
	}
	if agg+con > 0 {
		res.GovernorAggFrac = float64(agg) / float64(agg+con)
	}
	return res, nil
}

// linesPerCore bounds the distinct lines one core can reference: each
// reference names one line, so a core's stream length is the bound. The
// engine sizes its tables by it.
func (exp *Experiment) linesPerCore() int {
	if exp.Traces == nil {
		return int(min(exp.OpsPerCore, math.MaxInt32))
	}
	longest := 0
	for _, ops := range exp.Traces {
		longest = max(longest, len(ops))
	}
	return longest
}

// startGovernor installs the periodic energy-budget mode switcher. The
// governor's ticker stops once the event queue would otherwise drain — it
// reschedules only while protocol or core work remains pending.
func startGovernor(kern *sim.Kernel, eng *protocol.Engine, ds []*core.DynamicSuperset, g GovernorConfig) {
	lastNJ := 0.0
	lastCycle := sim.Time(0)
	var tick func()
	tick = func() {
		// Stop ticking once the machine has gone idle (the governor
		// must not keep the simulation alive forever). Buffered transmit
		// intents count as pending work: they become kernel events when
		// the cycle's flush runs.
		if kern.Pending() == 0 && eng.PendingTransmits() == 0 {
			return
		}
		nowNJ := eng.Meter().TotalNJ()
		now := kern.Now()
		if now > lastCycle {
			rate := (nowNJ - lastNJ) / float64(now-lastCycle) * 1000
			aggressive := rate <= g.BudgetNJPerKCycle
			for _, d := range ds {
				d.SetAggressive(aggressive)
			}
		}
		lastNJ, lastCycle = nowNJ, now
		kern.After(g.IntervalCycles, tick)
	}
	kern.After(g.IntervalCycles, tick)
}
