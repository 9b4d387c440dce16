// Package flexsnoop is a simulator for Flexible Snooping — the adaptive
// forwarding and filtering snoop algorithms for embedded-ring
// multiprocessors of Strauss, Shen and Torrellas (ISCA 2006).
//
// The package simulates a multi-CMP shared-memory machine whose coherence
// transactions travel on unidirectional rings logically embedded in the
// network (Table 4's 8-CMP, 32-core system by default), under any of the
// paper's snooping algorithms: the Lazy, Eager and Oracle baselines and
// the adaptive Subset, SupersetCon, SupersetAgg and Exact algorithms, plus
// the dynamic Agg/Con switcher the paper envisions.
//
// Quick start:
//
//	res, err := flexsnoop.Simulate(ctx, flexsnoop.SupersetAgg,
//		flexsnoop.FromWorkload("barnes"), flexsnoop.Options{})
//	fmt.Println(res.Cycles, res.Stats.SnoopsPerReadRequest(), res.EnergyNJ)
//
// Simulate is the single entry point: the Source selects what to simulate
// (a named workload via FromWorkload, a custom profile via FromProfile, or
// a recorded trace via FromTraceFile) and the context cancels the run
// between simulated events.
//
// The experiment drivers in this package regenerate every table and figure
// of the paper's evaluation; see RunMatrix, RunSensitivity, Table1 and
// DesignSpace.
package flexsnoop

import (
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"flexsnoop/internal/config"
	"flexsnoop/internal/fault"
	"flexsnoop/internal/machine"
	"flexsnoop/internal/sim"
	"flexsnoop/internal/telemetry"
	"flexsnoop/internal/trace"
	"flexsnoop/internal/workload"
)

// Algorithm identifies a snooping algorithm.
type Algorithm = config.Algorithm

// The snooping algorithms of the paper (Sections 3-4) plus the dynamic
// extension of Section 6.1.5.
const (
	Lazy            = config.Lazy
	Eager           = config.Eager
	Oracle          = config.Oracle
	Subset          = config.Subset
	SupersetCon     = config.SupersetCon
	SupersetAgg     = config.SupersetAgg
	Exact           = config.Exact
	DynamicSuperset = config.DynamicSuperset
)

// Algorithms returns the seven static algorithms in paper order.
func Algorithms() []Algorithm { return config.Algorithms() }

// Sentinel errors. Every failure the package reports for a bad input wraps
// one of these, so callers can branch with errors.Is instead of matching
// message text:
//
//	res, err := flexsnoop.Simulate(ctx, alg, flexsnoop.FromWorkload(name), opts)
//	if errors.Is(err, flexsnoop.ErrUnknownWorkload) { ... }
var (
	// ErrUnknownWorkload: a workload name no profile matches.
	ErrUnknownWorkload = workload.ErrUnknown
	// ErrUnknownAlgorithm: an algorithm name ParseAlgorithm rejects.
	ErrUnknownAlgorithm = config.ErrUnknownAlgorithm
	// ErrBadTrace: a malformed, truncated or unsupported trace file.
	ErrBadTrace = trace.ErrBadTrace
	// ErrBadConfig: an invalid machine configuration or option combination.
	ErrBadConfig = config.ErrBadConfig
	// ErrFaultPlan: a malformed fault-injection plan or spec string.
	ErrFaultPlan = fault.ErrPlan
)

// ParseAlgorithm maps an algorithm name to its identifier.
func ParseAlgorithm(name string) (Algorithm, error) { return config.ParseAlgorithm(name) }

// FaultPlan is a deterministic fault-injection plan: a list of rules
// applied to ring link-segment transmissions, plus a retransmit budget.
// See internal/fault for the field documentation.
type FaultPlan = fault.Plan

// FaultRule is one fault-injection rule of a FaultPlan.
type FaultRule = fault.Rule

// Fault kinds for FaultRule.Kind.
const (
	// FaultDrop loses the segment; the requester squashes and the
	// snoop-response deadline drives a bounded retransmit.
	FaultDrop = fault.Drop
	// FaultDup delivers a redundant copy one occupancy slot behind; the
	// receiver discards it (sequence-check analogue).
	FaultDup = fault.Dup
	// FaultDelay adds deterministic jitter to the segment's arrival.
	FaultDelay = fault.Delay
	// FaultStall parks the segment until the rule's window closes.
	FaultStall = fault.Stall
)

// ParseFaultPlan parses the command-line fault-plan syntax
// ("kind=drop,rate=0.05,ring=0;kind=delay,delay=80" — rules separated
// by ';', key=value fields by ','). Errors wrap ErrFaultPlan.
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.ParsePlan(spec) }

// PredictorConfig sizes a supplier predictor; the Sub512...Exa8k presets of
// Section 5.2 are exposed via Predictors.
type PredictorConfig = config.PredictorConfig

// Predictors returns the named Section 5.2 predictor configurations.
func Predictors() map[string]PredictorConfig {
	out := map[string]PredictorConfig{}
	for _, p := range []PredictorConfig{
		config.Sub512(), config.Sub2k(), config.Sub8k(),
		config.SupY512(), config.SupY2k(), config.SupN2k(),
		config.Exa512(), config.Exa2k(), config.Exa8k(),
	} {
		out[p.Name] = p
	}
	return out
}

// Result is the outcome of one simulation.
type Result = machine.Result

// Profile is a synthetic workload description.
type Profile = workload.Profile

// Workloads lists the evaluation's workload names: the 11 SPLASH-2
// applications, "specjbb" and "specweb".
func Workloads() []string {
	var names []string
	for _, p := range workload.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

// WorkloadByName returns a named workload profile.
func WorkloadByName(name string) (Profile, error) { return workload.ByName(name) }

// Options tunes one simulation run.
type Options struct {
	// OpsPerCore bounds each core's memory-reference stream (default
	// 3000).
	OpsPerCore uint64
	// Seed selects the deterministic workload streams (default 1).
	Seed int64
	// Predictor overrides the algorithm's default (Section 6.1)
	// supplier predictor.
	Predictor *PredictorConfig
	// CheckInvariants arms the coherence checker during the run: it runs
	// at the first cycle end after every 64 retired transactions, and a
	// violation fails the run with an error naming the cycle and the
	// line. It shares one end-of-cycle hook with CheckEvery.
	CheckInvariants bool
	// DisablePrefetch turns off the prefetch-on-snoop heuristic.
	DisablePrefetch bool
	// NumRings overrides the number of embedded rings (default 2).
	NumRings int
	// GovernorBudgetNJPerKCycle enables the dynamic Agg/Con governor
	// (DynamicSuperset runs only).
	GovernorBudgetNJPerKCycle float64
	// WarmupCycles discards statistics and energy accumulated before
	// this cycle, so results cover only the steady-state window.
	WarmupCycles uint64
	// AlgorithmsPerNode gives each CMP node its own snooping policy — a
	// heterogeneous ring (the paper's Table 2 machinery explicitly
	// supports messages split and recombined multiple times as nodes
	// choose different primitives). Must have one entry per CMP. All
	// nodes share the predictor configuration of the labelled algorithm.
	AlgorithmsPerNode []Algorithm
	// Telemetry, when non-nil and requesting at least one output,
	// enables the observability layer for this run: per-transaction
	// event traces (Chrome trace-event JSON for Perfetto, or JSONL) and
	// interval time-series metrics (CSV, optional SVG chart). Telemetry
	// never perturbs the simulation: results are cycle-identical with it
	// on or off.
	Telemetry *TelemetryOptions
	// Faults, when non-nil with at least one rule, arms deterministic
	// fault injection on the ring's link segments. Faulty runs exercise
	// the protocol's timeout/retransmit path; a nil (or empty) plan is
	// cycle-identical to a build without the fault layer.
	Faults *FaultPlan
	// CheckEvery, when positive, runs the full coherence invariant
	// checker at the first cycle end at or after every CheckEvery-cycle
	// mark, on the same hook as CheckInvariants: a violation fails the
	// run at the cycle it is found instead of at the end-of-run check.
	// When both cadences are due at one cycle end, the checker runs
	// once.
	CheckEvery uint64
	// WatchdogWindow, when positive, arms the no-forward-progress
	// watchdog with the given window in cycles. Zero picks an automatic
	// window from the snoop-response deadline when Faults is set, and
	// leaves the watchdog off otherwise.
	WatchdogWindow uint64
	// WatchdogDegrade makes the watchdog degrade gracefully — force
	// Eager forwarding for the lines of live transactions — before
	// failing fast.
	WatchdogDegrade bool
	// Tweak, when non-nil, receives the machine configuration for
	// arbitrary adjustments before the run.
	Tweak func(*MachineConfig)
}

// Validate reports whether the options are internally consistent,
// wrapping ErrBadConfig on failure. Simulate calls it (plus the
// algorithm-dependent combination checks) before building the machine, so
// bad inputs fail fast instead of deep inside the simulator.
func (o Options) Validate() error {
	if o.GovernorBudgetNJPerKCycle < 0 {
		return fmt.Errorf("%w: negative governor budget %g", ErrBadConfig, o.GovernorBudgetNJPerKCycle)
	}
	if o.NumRings < 0 {
		return fmt.Errorf("%w: negative ring count %d", ErrBadConfig, o.NumRings)
	}
	if err := o.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// TelemetryOptions selects the observability outputs of a run; see
// internal/telemetry for the field documentation.
type TelemetryOptions = telemetry.Config

// Trace output formats for TelemetryOptions.TraceFormat.
const (
	TraceFormatChrome = telemetry.FormatChrome
	TraceFormatJSONL  = telemetry.FormatJSONL
)

// MachineConfig is the full architectural parameter set (Table 4).
type MachineConfig = config.MachineConfig

// DefaultMachine returns the Table 4 machine configuration.
func DefaultMachine() MachineConfig { return config.DefaultMachine() }

// Source selects what a simulation runs on: a named workload, a custom
// synthetic profile, or a recorded trace file. Build one with
// FromWorkload, FromProfile or FromTraceFile; the zero Source is invalid
// and Simulate rejects it with ErrBadConfig.
//
// Source is a closed sum type: the three constructors are the only ways
// to obtain a useful value, which keeps Simulate's dispatch exhaustive.
type Source struct {
	kind     sourceKind
	workload string
	profile  Profile
	path     string
}

type sourceKind int

const (
	sourceNone sourceKind = iota
	sourceWorkload
	sourceProfile
	sourceTraceFile
)

// FromWorkload selects one of the named evaluation workloads (see
// Workloads). Resolution happens inside Simulate, so an unknown name
// fails there with ErrUnknownWorkload.
func FromWorkload(name string) Source {
	return Source{kind: sourceWorkload, workload: name}
}

// FromProfile selects a custom synthetic workload profile.
func FromProfile(p Profile) Source {
	return Source{kind: sourceProfile, profile: p}
}

// FromTraceFile selects a recorded binary trace file (see WriteTraceFile;
// a ".gz" suffix enables gzip). The per-CMP core count is inferred from
// the trace's stream count; malformed inputs fail with ErrBadTrace.
func FromTraceFile(path string) Source {
	return Source{kind: sourceTraceFile, path: path}
}

// String names the source for logs and error messages.
func (s Source) String() string {
	switch s.kind {
	case sourceWorkload:
		return "workload:" + s.workload
	case sourceProfile:
		return "profile:" + s.profile.Name
	case sourceTraceFile:
		return "trace:" + s.path
	}
	return "invalid"
}

// Simulate runs one simulation: algorithm alg on the workload, profile or
// trace the Source selects, under opts. It is the package's single
// entry point for one simulation; RunJobContext delegates here.
//
// The simulation stops between events once ctx is cancelled, returning an
// error that wraps ctx's error (errors.Is(err, context.Canceled)
// matches). A partial, cancelled run never corrupts shared state — every
// run builds its own machine — and passing a nil or Background context
// costs nothing on the hot path.
func Simulate(ctx context.Context, alg Algorithm, src Source, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch src.kind {
	case sourceWorkload:
		prof, err := workload.ByName(src.workload)
		if err != nil {
			return Result{}, err
		}
		return simulateProfile(ctx, alg, prof, opts)
	case sourceProfile:
		return simulateProfile(ctx, alg, src.profile, opts)
	case sourceTraceFile:
		return simulateTraceFile(ctx, alg, src.path, opts)
	}
	return Result{}, fmt.Errorf("%w: empty simulation source (use FromWorkload, FromProfile or FromTraceFile)", ErrBadConfig)
}

// simulateProfile is the profile-backed execution path behind Simulate.
func simulateProfile(ctx context.Context, alg Algorithm, prof Profile, opts Options) (Result, error) {
	exp, err := buildExperiment(alg, prof, opts)
	if err != nil {
		return Result{}, err
	}
	exp.Context = ctx
	return machine.Run(exp)
}

// buildExperiment is the single validated construction path behind
// Simulate's profile and trace sources: options are validated, applied
// to a Table 4 default machine, and the final configuration re-validated
// after the Tweak hook has run.
func buildExperiment(alg Algorithm, prof Profile, opts Options) (machine.Experiment, error) {
	if err := opts.Validate(); err != nil {
		return machine.Experiment{}, err
	}
	if opts.GovernorBudgetNJPerKCycle > 0 && !usesDynamic(alg, opts.AlgorithmsPerNode) {
		return machine.Experiment{}, fmt.Errorf(
			"%w: GovernorBudgetNJPerKCycle set but no node runs DynamicSuperset", ErrBadConfig)
	}
	exp := machine.New(alg, prof)
	if opts.OpsPerCore > 0 {
		exp.OpsPerCore = opts.OpsPerCore
	}
	if opts.Seed != 0 {
		exp.Seed = opts.Seed
	}
	if opts.Predictor != nil {
		exp.Predictor = *opts.Predictor
	}
	exp.CheckInvariants = opts.CheckInvariants
	if opts.DisablePrefetch {
		exp.Machine.PrefetchOnSnoop = false
	}
	if opts.NumRings > 0 {
		exp.Machine.NumRings = opts.NumRings
	}
	if opts.GovernorBudgetNJPerKCycle > 0 {
		exp.Governor = machine.DefaultGovernor(opts.GovernorBudgetNJPerKCycle)
	}
	if len(opts.AlgorithmsPerNode) > 0 {
		exp.AlgorithmPerNode = opts.AlgorithmsPerNode
	}
	if opts.WarmupCycles > 0 {
		exp.WarmupCycles = sim.Time(opts.WarmupCycles)
	}
	exp.Telemetry = opts.Telemetry
	exp.Faults = opts.Faults
	exp.CheckEveryCycles = sim.Time(opts.CheckEvery)
	exp.WatchdogWindow = sim.Time(opts.WatchdogWindow)
	exp.WatchdogDegrade = opts.WatchdogDegrade
	if opts.Tweak != nil {
		opts.Tweak(&exp.Machine)
	}
	// Checked after Tweak: the hook may legitimately change NumCMPs.
	if n := len(opts.AlgorithmsPerNode); n > 0 && n != exp.Machine.NumCMPs {
		return machine.Experiment{}, fmt.Errorf("%w: %d per-node algorithms for %d CMPs",
			ErrBadConfig, n, exp.Machine.NumCMPs)
	}
	if err := exp.Machine.Validate(); err != nil {
		return machine.Experiment{}, err
	}
	if err := exp.Predictor.Validate(); err != nil {
		return machine.Experiment{}, err
	}
	return exp, nil
}

// usesDynamic reports whether any node of the run executes the
// DynamicSuperset algorithm.
func usesDynamic(alg Algorithm, perNode []Algorithm) bool {
	if len(perNode) == 0 {
		return alg == DynamicSuperset
	}
	for _, a := range perNode {
		if a == DynamicSuperset {
			return true
		}
	}
	return false
}

// WriteTraceFile records a workload's per-core reference streams to a
// binary trace file (the paper's trace-driven mode for SPEC workloads).
// A ".gz" suffix enables gzip compression.
func WriteTraceFile(path, workloadName string, opsPerCore uint64, seed int64) error {
	prof, err := workload.ByName(workloadName)
	if err != nil {
		return err
	}
	cores := config.DefaultMachine().NumCMPs * prof.Class.CoresPerCMP()
	streams := make([][]workload.Op, cores)
	for g := 0; g < cores; g++ {
		streams[g] = trace.Record(workload.NewGenerator(prof, g, opsPerCore, seed))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := trace.Write(w, streams); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}

// simulateTraceFile is the trace-backed execution path behind Simulate:
// the per-CMP core count is inferred from the trace's stream count.
// Malformed inputs — corrupt data, a bad gzip envelope, or a stream count
// that does not map onto the machine's CMPs — fail with an error wrapping
// ErrBadTrace.
func simulateTraceFile(ctx context.Context, alg Algorithm, path string, opts Options) (Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return Result{}, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return Result{}, fmt.Errorf("%w: %s: %v", ErrBadTrace, path, err)
		}
		defer gz.Close()
		r = gz
	}
	streams, err := trace.Read(r)
	if err != nil {
		return Result{}, err
	}
	m := config.DefaultMachine()
	if len(streams)%m.NumCMPs != 0 || len(streams) == 0 {
		return Result{}, fmt.Errorf("%w: %d trace streams do not map onto %d CMPs",
			ErrBadTrace, len(streams), m.NumCMPs)
	}
	prof := workload.Profile{Name: "trace:" + path, PrivateLines: 1}
	exp, err := buildExperiment(alg, prof, opts)
	if err != nil {
		return Result{}, err
	}
	exp.Machine.CoresPerCMP = len(streams) / m.NumCMPs
	exp.Traces = streams
	exp.OpsPerCore = 0
	exp.Context = ctx
	return machine.Run(exp)
}
