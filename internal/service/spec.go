package service

import (
	"errors"
	"fmt"

	"flexsnoop"
)

// SpecVersion is the JobSpec wire version this build speaks. The
// compatibility rule (DESIGN.md §9): within one version, changes are
// strictly additive (new optional fields with zero-value defaults); any
// change that alters the meaning of an existing field bumps SpecVersion.
// Servers accept every version up to their own and reject newer ones
// with ErrSpecVersion (HTTP 400), so an old coordinator never silently
// misinterprets a spec from a newer client.
//
// Version 2 added deadline_ms and client_id. They are zero-default
// additive fields, but a v1 server that ran a job whose caller declared
// it dead — or admitted work a client had rate-budgeted — would violate
// the submitter's intent rather than merely ignore an optimisation, so
// the version was bumped (DESIGN.md §12).
const SpecVersion = 2

// ErrSpecVersion: the spec declares a wire version this server does not
// speak (HTTP 400).
var ErrSpecVersion = errors.New("service: unsupported job spec version")

// JobSpec is the wire shape of one job submission (POST /v1/jobs). It is
// deliberately a flat, JSON-friendly projection of flexsnoop.Options:
// everything result-affecting is expressible, nothing else is — in
// particular there is no way to smuggle a Tweak hook in, which keeps
// every spec canonically fingerprintable and therefore cacheable.
type JobSpec struct {
	// Version is the wire version of the spec (see SpecVersion). Zero
	// means "version 1": the field was introduced with version 1, so
	// specs that predate it are by definition v1.
	Version int `json:"version,omitempty"`
	// Algorithm and Workload name the run (required).
	Algorithm string `json:"algorithm"`
	Workload  string `json:"workload"`
	// Priority orders the queue: higher runs sooner (default 0). Jobs of
	// equal priority run in submission order. Queue aging (see
	// Config.SojournTarget) sheds the lowest priority first.
	Priority int `json:"priority,omitempty"`

	// DeadlineMS is the end-to-end deadline in milliseconds from
	// admission: past it the server sheds the job from the queue (before
	// it ever reaches a worker) or interrupts the running simulation.
	// Zero means no deadline. A coordinator rewrites the field to the
	// remaining budget when it re-dispatches the job to a worker, so the
	// deadline is end-to-end across the fleet. Like IntervalCycles it is
	// result-neutral and excluded from the fingerprint: it changes
	// whether a job runs, never what it computes.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// ClientID optionally names the submitting client for per-client
	// admission control (Config.RateLimit). Empty opts out. Excluded
	// from the fingerprint.
	ClientID string `json:"client_id,omitempty"`

	Options SpecOptions `json:"options"`
}

// SpecOptions carries the result-affecting run options. Field semantics
// match flexsnoop.Options; the predictor override and fault plan use
// their command-line spellings (preset name, plan grammar).
type SpecOptions struct {
	OpsPerCore                uint64   `json:"ops_per_core,omitempty"`
	Seed                      int64    `json:"seed,omitempty"`
	Predictor                 string   `json:"predictor,omitempty"` // preset name, e.g. "Sub2k"
	CheckInvariants           bool     `json:"check_invariants,omitempty"`
	DisablePrefetch           bool     `json:"disable_prefetch,omitempty"`
	NumRings                  int      `json:"num_rings,omitempty"`
	GovernorBudgetNJPerKCycle float64  `json:"governor_budget_nj_per_kcycle,omitempty"`
	WarmupCycles              uint64   `json:"warmup_cycles,omitempty"`
	AlgorithmsPerNode         []string `json:"algorithms_per_node,omitempty"`
	Faults                    string   `json:"faults,omitempty"` // ParseFaultPlan grammar
	CheckEvery                uint64   `json:"check_every,omitempty"`
	WatchdogWindow            uint64   `json:"watchdog_window,omitempty"`
	WatchdogDegrade           bool     `json:"watchdog_degrade,omitempty"`
	// ShardRings is accepted and ignored. It once selected a sharded
	// ring-arbitration mode whose results were bit-identical to serial
	// runs; the mode is gone, and the field stays so that older clients
	// that still send it are not rejected as carrying an unknown field.
	ShardRings bool `json:"shard_rings,omitempty"`
	// FaultMaxRetries bounds timeout retransmits per access when Faults
	// is set (the plan grammar has no spelling for it; 0 = default 100).
	FaultMaxRetries int `json:"fault_max_retries,omitempty"`

	// IntervalCycles sets the metrics streaming interval for this run
	// (default 5000). It does not affect the simulation or the cache key.
	IntervalCycles uint64 `json:"interval_cycles,omitempty"`
}

// Job resolves the spec into a runnable flexsnoop.Job, validating every
// field. Errors wrap the root package's sentinels (ErrUnknownAlgorithm,
// ErrUnknownWorkload via the later run, ErrFaultPlan, ...), so callers
// can classify them.
func (s JobSpec) Job() (flexsnoop.Job, error) {
	if s.Version < 0 || s.Version > SpecVersion {
		return flexsnoop.Job{}, fmt.Errorf("%w: %d (this server speaks versions 1..%d)",
			ErrSpecVersion, s.Version, SpecVersion)
	}
	if s.DeadlineMS < 0 {
		return flexsnoop.Job{}, fmt.Errorf("%w: negative deadline_ms %d",
			flexsnoop.ErrBadConfig, s.DeadlineMS)
	}
	if len(s.ClientID) > 256 {
		return flexsnoop.Job{}, fmt.Errorf("%w: client_id longer than 256 bytes",
			flexsnoop.ErrBadConfig)
	}
	alg, err := flexsnoop.ParseAlgorithm(s.Algorithm)
	if err != nil {
		return flexsnoop.Job{}, err
	}
	if s.Workload == "" {
		return flexsnoop.Job{}, fmt.Errorf("%w: empty workload", flexsnoop.ErrUnknownWorkload)
	}
	if _, err := flexsnoop.WorkloadByName(s.Workload); err != nil {
		return flexsnoop.Job{}, err
	}
	o := flexsnoop.Options{
		OpsPerCore:                s.Options.OpsPerCore,
		Seed:                      s.Options.Seed,
		CheckInvariants:           s.Options.CheckInvariants,
		DisablePrefetch:           s.Options.DisablePrefetch,
		NumRings:                  s.Options.NumRings,
		GovernorBudgetNJPerKCycle: s.Options.GovernorBudgetNJPerKCycle,
		WarmupCycles:              s.Options.WarmupCycles,
		CheckEvery:                s.Options.CheckEvery,
		WatchdogWindow:            s.Options.WatchdogWindow,
		WatchdogDegrade:           s.Options.WatchdogDegrade,
	}
	if s.Options.Predictor != "" {
		p, ok := flexsnoop.Predictors()[s.Options.Predictor]
		if !ok {
			return flexsnoop.Job{}, fmt.Errorf("%w: unknown predictor preset %q",
				flexsnoop.ErrBadConfig, s.Options.Predictor)
		}
		o.Predictor = &p
	}
	if len(s.Options.AlgorithmsPerNode) > 0 {
		algs := make([]flexsnoop.Algorithm, len(s.Options.AlgorithmsPerNode))
		for i, name := range s.Options.AlgorithmsPerNode {
			a, err := flexsnoop.ParseAlgorithm(name)
			if err != nil {
				return flexsnoop.Job{}, err
			}
			algs[i] = a
		}
		o.AlgorithmsPerNode = algs
	}
	if s.Options.Faults != "" {
		plan, err := flexsnoop.ParseFaultPlan(s.Options.Faults)
		if err != nil {
			return flexsnoop.Job{}, err
		}
		plan.MaxRetries = s.Options.FaultMaxRetries
		o.Faults = plan
	} else if s.Options.FaultMaxRetries != 0 {
		return flexsnoop.Job{}, fmt.Errorf("%w: fault_max_retries without a fault plan",
			flexsnoop.ErrBadConfig)
	}
	if err := o.Validate(); err != nil {
		return flexsnoop.Job{}, err
	}
	return flexsnoop.Job{Algorithm: alg, Workload: s.Workload, Options: o}, nil
}

// SpecFor builds the wire spec for an (algorithm, workload, options)
// triple — the inverse of JobSpec.Job, used by remote drivers such as
// `sweep -remote`. It fails for options the wire shape cannot express: a
// Tweak hook, a Telemetry config, or a predictor override that is not a
// named preset. Transport attributes that are not part of the
// result-defining triple — Priority, DeadlineMS, ClientID — are left
// zero; callers set them on the returned spec.
func SpecFor(alg flexsnoop.Algorithm, workload string, o flexsnoop.Options) (JobSpec, error) {
	if o.Tweak != nil {
		return JobSpec{}, fmt.Errorf("%w: Options.Tweak cannot be submitted remotely",
			flexsnoop.ErrBadConfig)
	}
	if o.Telemetry != nil {
		return JobSpec{}, fmt.Errorf("%w: Options.Telemetry cannot be submitted remotely "+
			"(stream /v1/jobs/{id}/metrics instead)", flexsnoop.ErrBadConfig)
	}
	spec := JobSpec{
		Version:   SpecVersion,
		Algorithm: alg.String(),
		Workload:  workload,
		Options: SpecOptions{
			OpsPerCore:                o.OpsPerCore,
			Seed:                      o.Seed,
			CheckInvariants:           o.CheckInvariants,
			DisablePrefetch:           o.DisablePrefetch,
			NumRings:                  o.NumRings,
			GovernorBudgetNJPerKCycle: o.GovernorBudgetNJPerKCycle,
			WarmupCycles:              o.WarmupCycles,
			CheckEvery:                o.CheckEvery,
			WatchdogWindow:            o.WatchdogWindow,
			WatchdogDegrade:           o.WatchdogDegrade,
		},
	}
	if o.Predictor != nil {
		preset, ok := flexsnoop.Predictors()[o.Predictor.Name]
		if !ok || !samePredictor(preset, *o.Predictor) {
			return JobSpec{}, fmt.Errorf("%w: predictor %q is not a named preset",
				flexsnoop.ErrBadConfig, o.Predictor.Name)
		}
		spec.Options.Predictor = o.Predictor.Name
	}
	for _, a := range o.AlgorithmsPerNode {
		spec.Options.AlgorithmsPerNode = append(spec.Options.AlgorithmsPerNode, a.String())
	}
	if o.Faults != nil {
		plan, err := faultPlanSpec(o.Faults)
		if err != nil {
			return JobSpec{}, err
		}
		spec.Options.Faults = plan
		spec.Options.FaultMaxRetries = o.Faults.MaxRetries
	}
	return spec, nil
}

// samePredictor compares predictor configurations by value
// (PredictorConfig carries a slice, so == does not apply).
func samePredictor(a, b flexsnoop.PredictorConfig) bool {
	if a.Kind != b.Kind || a.Name != b.Name || a.Entries != b.Entries ||
		a.Assoc != b.Assoc || a.ExcludeCache != b.ExcludeCache ||
		a.AccessCycles != b.AccessCycles || len(a.BloomFieldBits) != len(b.BloomFieldBits) {
		return false
	}
	for i := range a.BloomFieldBits {
		if a.BloomFieldBits[i] != b.BloomFieldBits[i] {
			return false
		}
	}
	return true
}

// faultPlanSpec renders a fault plan back into the ParsePlan grammar.
func faultPlanSpec(p *flexsnoop.FaultPlan) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	var out string
	for i, r := range p.Rules {
		if i > 0 {
			out += ";"
		}
		out += fmt.Sprintf("kind=%s,rate=%g,ring=%d,node=%d,from=%d,until=%d,seed=%d",
			r.Kind, r.Rate, r.Ring, r.Node, r.From, r.Until, r.Seed)
		if r.Delay > 0 {
			out += fmt.Sprintf(",delay=%d", r.Delay)
		}
	}
	return out, nil
}
