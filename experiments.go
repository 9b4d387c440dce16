package flexsnoop

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"

	"flexsnoop/internal/config"
	"flexsnoop/internal/core"
	"flexsnoop/internal/predictor"
	"flexsnoop/internal/stats"
	"flexsnoop/internal/workload"
)

// FigureOptions scales the experiment drivers. The defaults keep a full
// figure regeneration in the minutes range; raise OpsPerCore for smoother
// curves.
type FigureOptions struct {
	// OpsPerCore bounds each core's reference stream (default 2000).
	OpsPerCore uint64
	// Seed selects the workload streams (default 1).
	Seed int64
	// Apps restricts the SPLASH-2 applications simulated (default: all
	// 11). SPECjbb and SPECweb are always included.
	Apps []string
	// Algorithms restricts the algorithms (default: all seven).
	Algorithms []Algorithm
	// Parallelism bounds concurrent simulations (default: GOMAXPROCS).
	// Each simulation is an independent single-threaded event kernel, so
	// the matrix parallelises perfectly.
	Parallelism int
	// Progress, when non-nil, receives a line per completed run; it may
	// be called from multiple goroutines.
	Progress func(string)
	// TelemetryFor, when non-nil, is consulted once per (algorithm,
	// workload) cell of a matrix run; a non-nil return enables telemetry
	// for that cell's simulation. It is called sequentially while jobs
	// are being created, so it may open files without synchronisation.
	// Not consulted when Runner is set.
	TelemetryFor func(alg Algorithm, workload string) *TelemetryOptions
	// Runner, when non-nil, replaces the in-process simulator for every
	// cell the matrix and sensitivity drivers run: it receives the cell's
	// exact configuration and must return its Result. `sweep -remote`
	// uses this to farm a sweep out to a ringsimd server; because the
	// simulator is deterministic, a remote Result is bit-identical to the
	// in-process one, so derived figures are unchanged. When Runner is
	// set, TelemetryFor is ignored (telemetry belongs to the executing
	// side — stream it from the server instead).
	Runner func(ctx context.Context, alg Algorithm, workload string, opts Options) (Result, error)
	// Context, when non-nil, cancels the whole driver: in-flight
	// simulations stop between events, and no further jobs launch. A nil
	// or Background context costs nothing.
	Context context.Context
	// Faults arms deterministic fault injection for every simulation the
	// driver runs (see Options.Faults). Figures regenerated under faults
	// measure the hardened protocol, not the paper's fault-free numbers.
	Faults *FaultPlan
	// CheckEvery arms the continuous invariant checker for every
	// simulation the driver runs (see Options.CheckEvery).
	CheckEvery uint64
}

// runCell dispatches one driver cell to the Runner override or the
// in-process simulator. Profiles handed to the drivers are always the
// canonical named workloads, so dispatching by name is faithful.
func (o FigureOptions) runCell(ctx context.Context, alg Algorithm, prof Profile, opts Options) (Result, error) {
	if o.Runner != nil {
		return o.Runner(ctx, alg, prof.Name, opts)
	}
	return Simulate(ctx, alg, FromProfile(prof), opts)
}

// ctx returns the driver's context, defaulting to Background.
func (o FigureOptions) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o FigureOptions) withDefaults() FigureOptions {
	if o.OpsPerCore == 0 {
		o.OpsPerCore = 2000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Algorithms) == 0 {
		o.Algorithms = Algorithms()
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// poolJob is one unit of work for runPoolContext. A non-empty label is
// attached to the job's goroutine as a pprof label (under labelKey,
// "scenario" when empty), so a CPU profile of a figure driver attributes
// time per simulated cell — and fault-injection jobs, which carry their
// own key, separate from plain figure cells in the same profile.
type poolJob struct {
	label    string
	labelKey string
	run      func() error
}

// runPoolContext executes independent simulation jobs with bounded
// parallelism. After the first failure no further jobs are launched
// (already-running jobs finish); every failure is reported, joined with
// errors.Join. Once ctx is done, no further jobs launch either (in-flight
// jobs observe ctx themselves) and the context's error joins the result.
// Cancellation wins deterministically: whenever ctx is done by the time
// the pool drains, the returned error matches errors.Is(err, ctx.Err()),
// even if a job error raced it.
func runPoolContext(ctx context.Context, parallelism int, jobs []poolJob) error {
	if parallelism < 1 {
		parallelism = 1
	}
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	ctxJoined := false
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(errs) > 0
	}
	for _, job := range jobs {
		// Acquire the semaphore before deciding to stop: any failure
		// recorded while we waited is then guaranteed visible, so at
		// most parallelism-1 extra jobs start after the first error.
		sem <- struct{}{}
		if err := ctx.Err(); err != nil {
			<-sem
			mu.Lock()
			errs = append(errs, err)
			ctxJoined = true
			mu.Unlock()
			break
		}
		if failed() {
			<-sem
			break
		}
		job := job
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			run := func() {
				if err := job.run(); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
			if job.label == "" {
				run()
				return
			}
			key := job.labelKey
			if key == "" {
				key = "scenario"
			}
			pprof.Do(ctx, pprof.Labels(key, job.label), func(context.Context) { run() })
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil && !ctxJoined {
		// The context was cancelled after the launch loop had already
		// finished (or a job error raced the cancellation): join the
		// context error so callers observe it deterministically.
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (o FigureOptions) splashProfiles() ([]Profile, error) {
	all := workload.Splash2Profiles()
	if len(o.Apps) == 0 {
		return all, nil
	}
	var out []Profile
	for _, name := range o.Apps {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		if p.Class != workload.Splash2 {
			return nil, fmt.Errorf("flexsnoop: %q is not a SPLASH-2 application", name)
		}
		out = append(out, p)
	}
	return out, nil
}

// ClassValues carries one figure's bars for one workload class: a value
// per algorithm name.
type ClassValues struct {
	Class  string
	Values map[string]float64
}

// Matrix holds the full (algorithm x workload) result grid behind Figures
// 6-9: run it once, derive every figure from it.
type Matrix struct {
	opts FigureOptions
	// results[alg][workloadName]
	results map[Algorithm]map[string]Result
	splash  []string // SPLASH-2 app names simulated
}

// RunMatrix simulates every requested algorithm on every workload.
func RunMatrix(opts FigureOptions) (*Matrix, error) {
	o := opts.withDefaults()
	splash, err := o.splashProfiles()
	if err != nil {
		return nil, err
	}
	profiles := append(append([]Profile{}, splash...),
		workload.SPECjbbProfile(), workload.SPECwebProfile())

	m := &Matrix{opts: o, results: map[Algorithm]map[string]Result{}}
	for _, p := range splash {
		m.splash = append(m.splash, p.Name)
	}
	var mu sync.Mutex
	var jobs []poolJob
	for _, alg := range o.Algorithms {
		m.results[alg] = map[string]Result{}
		for _, prof := range profiles {
			alg, prof := alg, prof
			var tel *TelemetryOptions
			if o.TelemetryFor != nil && o.Runner == nil {
				tel = o.TelemetryFor(alg, prof.Name)
			}
			jobs = append(jobs, poolJob{label: fmt.Sprintf("%v/%s", alg, prof.Name), run: func() error {
				res, err := o.runCell(o.ctx(), alg, prof, Options{OpsPerCore: o.OpsPerCore, Seed: o.Seed, Telemetry: tel, Faults: o.Faults, CheckEvery: o.CheckEvery})
				if err != nil {
					return fmt.Errorf("flexsnoop: %v on %s: %w", alg, prof.Name, err)
				}
				mu.Lock()
				m.results[alg][prof.Name] = res
				mu.Unlock()
				if o.Progress != nil {
					o.Progress(fmt.Sprintf("%v/%s: %d cycles, %.2f snoops/req",
						alg, prof.Name, res.Cycles, res.Stats.SnoopsPerReadRequest()))
				}
				return nil
			}})
		}
	}
	if err := runPoolContext(o.ctx(), o.Parallelism, jobs); err != nil {
		return nil, err
	}
	return m, nil
}

// Result returns one cell of the matrix.
func (m *Matrix) Result(alg Algorithm, workloadName string) (Result, bool) {
	r, ok := m.results[alg][workloadName]
	return r, ok
}

// Classes returns the reporting classes in paper order.
func (m *Matrix) Classes() []string { return []string{"SPLASH-2", "SPECjbb", "SPECweb"} }

// metric extracts one per-run quantity.
type metric func(Result) float64

// absolute aggregates a metric per class with an arithmetic mean over the
// SPLASH-2 applications (as Figure 6 does for absolute counts).
func (m *Matrix) absolute(f metric) []ClassValues {
	out := []ClassValues{
		{Class: "SPLASH-2", Values: map[string]float64{}},
		{Class: "SPECjbb", Values: map[string]float64{}},
		{Class: "SPECweb", Values: map[string]float64{}},
	}
	for alg, byWl := range m.results {
		var splash []float64
		for _, app := range m.splash {
			splash = append(splash, f(byWl[app]))
		}
		out[0].Values[alg.String()] = stats.ArithMean(splash)
		out[1].Values[alg.String()] = f(byWl["specjbb"])
		out[2].Values[alg.String()] = f(byWl["specweb"])
	}
	return out
}

// normalized aggregates a metric normalised to Lazy per workload, with a
// geometric mean over the SPLASH-2 applications (Figures 7-9).
func (m *Matrix) normalized(f metric) ([]ClassValues, error) {
	base, ok := m.results[Lazy]
	if !ok {
		return nil, fmt.Errorf("flexsnoop: normalised figures need a Lazy baseline in the matrix")
	}
	out := []ClassValues{
		{Class: "SPLASH-2", Values: map[string]float64{}},
		{Class: "SPECjbb", Values: map[string]float64{}},
		{Class: "SPECweb", Values: map[string]float64{}},
	}
	for alg, byWl := range m.results {
		var splash []float64
		for _, app := range m.splash {
			b := f(base[app])
			if b <= 0 {
				return nil, fmt.Errorf("flexsnoop: zero Lazy baseline on %s", app)
			}
			splash = append(splash, f(byWl[app])/b)
		}
		out[0].Values[alg.String()] = stats.GeoMean(splash)
		out[1].Values[alg.String()] = f(byWl["specjbb"]) / f(base["specjbb"])
		out[2].Values[alg.String()] = f(byWl["specweb"]) / f(base["specweb"])
	}
	return out, nil
}

// Figure6 returns the average number of snoop operations per read snoop
// request, per class and algorithm (absolute values, Figure 6).
func (m *Matrix) Figure6() []ClassValues {
	return m.absolute(func(r Result) float64 { return r.Stats.SnoopsPerReadRequest() })
}

// Figure7 returns the total read snoop requests and replies in the ring
// (segment transmissions), normalised to Lazy (Figure 7).
func (m *Matrix) Figure7() ([]ClassValues, error) {
	return m.normalized(func(r Result) float64 { return float64(r.Stats.ReadRingSegments) })
}

// Figure8 returns execution time normalised to Lazy (Figure 8).
func (m *Matrix) Figure8() ([]ClassValues, error) {
	return m.normalized(func(r Result) float64 { return float64(r.Cycles) })
}

// Figure9 returns the snoop-servicing energy of Section 6.1.4 normalised
// to Lazy (Figure 9).
func (m *Matrix) Figure9() ([]ClassValues, error) {
	return m.normalized(func(r Result) float64 { return r.EnergyNJ })
}

// Table1 returns the analytical comparison of the baseline algorithms
// (Table 1) for the default 8-node machine.
func Table1() []core.Table1Row {
	return core.DefaultModel(config.DefaultMachine().NumCMPs).Table1()
}

// Table3 returns the analytical Flexible Snooping rows of Table 3, using
// the supplied predictor false-positive/false-negative rates (e.g. the
// measured rates from a Matrix run).
func Table3(fpRate, fnRate float64) []core.Table3Row {
	m := core.DefaultModel(config.DefaultMachine().NumCMPs)
	m.FPRate = fpRate
	m.FNRate = fnRate
	return m.Table3()
}

// DesignSpace returns the Figure 4 placement of every algorithm in the
// (unloaded latency, snoop operations) plane.
func DesignSpace(fpRate, fnRate float64) []core.DesignPoint {
	m := core.DefaultModel(config.DefaultMachine().NumCMPs)
	m.FPRate = fpRate
	m.FNRate = fnRate
	return m.DesignSpace()
}

// MeasuredRates extracts the aggregate predictor false-positive and
// false-negative rates measured across the matrix (feeds Table3 and
// DesignSpace with simulation-grounded inputs).
func (m *Matrix) MeasuredRates() (fpRate, fnRate float64) {
	var acc predictor.Accuracy
	for _, byWl := range m.results {
		for _, r := range byWl {
			acc.Add(r.Stats.Accuracy)
		}
	}
	if acc.Total() == 0 {
		return 0, 0
	}
	_, _, fp, fn := acc.Fractions()
	return fp, fn
}

// EnergySavingsVsEager reports, per class, how much less energy an
// algorithm consumes than Eager (the paper's headline: SupersetAgg saves
// 9-17%, SupersetCon 47-48%).
func (m *Matrix) EnergySavingsVsEager(alg Algorithm) (map[string]float64, error) {
	fig9, err := m.Figure9()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, cv := range fig9 {
		eager, ok1 := cv.Values[Eager.String()]
		target, ok2 := cv.Values[alg.String()]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("flexsnoop: matrix lacks %v or Eager", alg)
		}
		out[cv.Class] = 1 - target/eager
	}
	return out, nil
}

// SensitivityResult is one cell of the Figure 10/11 sweep.
type SensitivityResult struct {
	Algorithm Algorithm
	Predictor string
	Class     string
	// CyclesNorm is execution time normalised to the class's middle
	// (Section 6.1) predictor configuration, as Figure 10 plots.
	CyclesNorm float64
	// Accuracy fractions (Figure 11).
	TruePos, TrueNeg, FalsePos, FalseNeg float64
}

// sensitivitySpecs lists Figure 10's predictor variants per algorithm, in
// (small, main, large) order.
func sensitivitySpecs() map[Algorithm][3]PredictorConfig {
	return map[Algorithm][3]PredictorConfig{
		Subset:      {config.Sub512(), config.Sub2k(), config.Sub8k()},
		SupersetCon: {config.SupY512(), config.SupY2k(), config.SupN2k()},
		SupersetAgg: {config.SupY512(), config.SupY2k(), config.SupN2k()},
		Exact:       {config.Exa512(), config.Exa2k(), config.Exa8k()},
	}
}

// Sensitivity holds the Figure 10/11 sweep results.
type Sensitivity struct {
	Cells []SensitivityResult
	// Perfect is the Figure 11 perfect-predictor breakdown per class.
	Perfect map[string][4]float64 // TP, TN, FP, FN
}

// RunSensitivity sweeps the supplier-predictor sizes and organisations of
// Section 6.2 (Figures 10 and 11).
func RunSensitivity(opts FigureOptions) (*Sensitivity, error) {
	o := opts.withDefaults()
	splash, err := o.splashProfiles()
	if err != nil {
		return nil, err
	}
	classes := []struct {
		name     string
		profiles []Profile
	}{
		{"SPLASH-2", splash},
		{"SPECjbb", []Profile{workload.SPECjbbProfile()}},
		{"SPECweb", []Profile{workload.SPECwebProfile()}},
	}

	// Run every (algorithm, predictor, profile) cell in parallel, then
	// aggregate per class sequentially.
	type cellKey struct {
		alg     Algorithm
		class   string
		predIdx int
		profIdx int
	}
	results := map[cellKey]Result{}
	var mu sync.Mutex
	var jobs []poolJob
	for alg, preds := range sensitivitySpecs() {
		for _, cl := range classes {
			for pi, pc := range preds {
				for fi, prof := range cl.profiles {
					alg, cl, pi, pc, fi, prof := alg, cl, pi, pc, fi, prof
					jobs = append(jobs, poolJob{label: fmt.Sprintf("%v/%s/%s", alg, pc.Name, prof.Name), run: func() error {
						pc := pc
						res, err := o.runCell(o.ctx(), alg, prof, Options{
							OpsPerCore: o.OpsPerCore, Seed: o.Seed, Predictor: &pc,
							Faults: o.Faults, CheckEvery: o.CheckEvery,
						})
						if err != nil {
							return fmt.Errorf("flexsnoop: sensitivity %v/%s/%s: %w",
								alg, pc.Name, prof.Name, err)
						}
						mu.Lock()
						results[cellKey{alg, cl.name, pi, fi}] = res
						mu.Unlock()
						if o.Progress != nil {
							o.Progress(fmt.Sprintf("%v/%s/%s: %d cycles", alg, pc.Name, prof.Name, res.Cycles))
						}
						return nil
					}})
				}
			}
		}
	}
	if err := runPoolContext(o.ctx(), o.Parallelism, jobs); err != nil {
		return nil, err
	}

	// Aggregate in sorted algorithm order: Perfect is filled from the
	// first algorithm with oracle accuracy data per class, so map-order
	// iteration would make Figure 11 nondeterministic run to run.
	specs := sensitivitySpecs()
	specAlgs := make([]Algorithm, 0, len(specs))
	for alg := range specs {
		specAlgs = append(specAlgs, alg)
	}
	sort.Slice(specAlgs, func(i, j int) bool { return specAlgs[i] < specAlgs[j] })

	out := &Sensitivity{Perfect: map[string][4]float64{}}
	for _, alg := range specAlgs {
		preds := specs[alg]
		for _, cl := range classes {
			var cycles [3]float64
			var accs [3]predictor.Accuracy
			for pi := range preds {
				var clCycles []float64
				var acc predictor.Accuracy
				var perfect predictor.Accuracy
				for fi := range cl.profiles {
					res := results[cellKey{alg, cl.name, pi, fi}]
					clCycles = append(clCycles, float64(res.Cycles))
					acc.Add(res.Stats.Accuracy)
					perfect.Add(res.Stats.PerfectAccuracy)
				}
				cycles[pi] = stats.GeoMean(clCycles)
				accs[pi] = acc
				if _, ok := out.Perfect[cl.name]; !ok && perfect.Total() > 0 {
					tp, tn, fp, fn := perfect.Fractions()
					out.Perfect[cl.name] = [4]float64{tp, tn, fp, fn}
				}
			}
			for pi, pc := range preds {
				tp, tn, fp, fn := accs[pi].Fractions()
				out.Cells = append(out.Cells, SensitivityResult{
					Algorithm: alg, Predictor: pc.Name, Class: cl.name,
					CyclesNorm: cycles[pi] / cycles[1],
					TruePos:    tp, TrueNeg: tn, FalsePos: fp, FalseNeg: fn,
				})
			}
		}
	}
	return out, nil
}

// FaultScenario names one fault plan for RunFaultMatrix.
type FaultScenario struct {
	Name string
	Plan *FaultPlan
}

// FaultCell is one completed cell of a fault-matrix run.
type FaultCell struct {
	Scenario  string
	Algorithm Algorithm
	Workload  string
	Result    Result
}

// RunFaultMatrix runs every (fault scenario, algorithm) pair on one
// workload with the continuous invariant checker armed, in parallel.
// It is the robustness analogue of RunMatrix: each cell must complete —
// a hang trips the watchdog, a coherence violation trips the checker —
// so a green matrix certifies the timeout/retransmit path end to end.
// Jobs carry the pprof label key "fault-inject" instead of "scenario",
// so a CPU profile separates fault-hardened runs from plain figure
// cells.
func RunFaultMatrix(workloadName string, scenarios []FaultScenario, opts FigureOptions) ([]FaultCell, error) {
	o := opts.withDefaults()
	prof, err := workload.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	checkEvery := o.CheckEvery
	if checkEvery == 0 {
		checkEvery = 5000
	}
	cells := make([]FaultCell, len(scenarios)*len(o.Algorithms))
	var jobs []poolJob
	for si, sc := range scenarios {
		for ai, alg := range o.Algorithms {
			si, sc, ai, alg := si, sc, ai, alg
			jobs = append(jobs, poolJob{
				label:    fmt.Sprintf("%s/%v", sc.Name, alg),
				labelKey: "fault-inject",
				run: func() error {
					res, err := Simulate(o.ctx(), alg, FromProfile(prof), Options{
						OpsPerCore: o.OpsPerCore, Seed: o.Seed,
						Faults: sc.Plan, CheckEvery: checkEvery,
					})
					if err != nil {
						return fmt.Errorf("flexsnoop: fault matrix %s/%v on %s: %w",
							sc.Name, alg, prof.Name, err)
					}
					cells[si*len(o.Algorithms)+ai] = FaultCell{
						Scenario: sc.Name, Algorithm: alg, Workload: prof.Name, Result: res,
					}
					if o.Progress != nil {
						o.Progress(fmt.Sprintf("%s/%v: %d cycles, %d timeouts, %d drops",
							sc.Name, alg, res.Cycles, res.Stats.SnoopTimeouts, res.Stats.FaultDrops))
					}
					return nil
				},
			})
		}
	}
	if err := runPoolContext(o.ctx(), o.Parallelism, jobs); err != nil {
		return nil, err
	}
	return cells, nil
}

// ScalingPoint is one machine size in the ring-scaling study.
type ScalingPoint struct {
	NumCMPs int
	// CyclesNorm is execution time normalised to the 8-CMP machine for
	// the same algorithm.
	CyclesNorm float64
	// SnoopsPerRequest and AvgReadMissLatency are absolute.
	SnoopsPerRequest   float64
	AvgReadMissLatency float64
}

// ScalingStudy measures how an algorithm's behaviour scales with ring
// size. The paper positions embedded-ring snooping as appropriate for
// medium machines (8-16 nodes, Section 1): Lazy's request latency grows
// with every added hop-plus-snoop, while the adaptive algorithms grow
// only by the hop.
func ScalingStudy(alg Algorithm, workloadName string, opts FigureOptions) ([]ScalingPoint, error) {
	o := opts.withDefaults()
	prof, err := workload.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	sizes := []struct{ n, w, h int }{{4, 2, 2}, {8, 4, 2}, {16, 4, 4}}
	var out []ScalingPoint
	var base float64
	for _, sz := range sizes {
		sz := sz
		res, err := Simulate(o.ctx(), alg, FromProfile(prof), Options{
			OpsPerCore: o.OpsPerCore, Seed: o.Seed,
			Tweak: func(m *MachineConfig) {
				m.NumCMPs = sz.n
				m.TorusWidth, m.TorusHeight = sz.w, sz.h
			},
		})
		if err != nil {
			return nil, fmt.Errorf("flexsnoop: scaling %v at %d CMPs: %w", alg, sz.n, err)
		}
		if sz.n == 8 {
			base = float64(res.Cycles)
		}
		out = append(out, ScalingPoint{
			NumCMPs:            sz.n,
			CyclesNorm:         float64(res.Cycles),
			SnoopsPerRequest:   res.Stats.SnoopsPerReadRequest(),
			AvgReadMissLatency: res.Stats.AvgReadMissLatency(),
		})
		if o.Progress != nil {
			o.Progress(fmt.Sprintf("%v @ %d CMPs: %d cycles", alg, sz.n, res.Cycles))
		}
	}
	for i := range out {
		out[i].CyclesNorm /= base
	}
	return out, nil
}
