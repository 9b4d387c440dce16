package flexsnoop

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// fingerprintVersion prefixes every fingerprint so a future change to the
// canonical encoding invalidates old cache keys instead of colliding with
// them.
const fingerprintVersion = "fsn2"

// Fingerprint returns a canonical content hash of the options: two Options
// values produce the same fingerprint exactly when they request the same
// simulation. The encoding is field-order independent (fields are hashed
// as sorted key=value lines, so reordering struct fields or building the
// value differently cannot change the hash) and covers the full
// result-affecting configuration: workload sizing, seed, predictor
// override, per-node algorithms, the complete fault plan and the
// robustness knobs.
//
// Two fields are deliberately excluded. Telemetry never perturbs a
// simulation (results are cycle-identical with it on or off), so runs
// differing only in observability share a fingerprint and may share a
// cached result. Tweak is an arbitrary function with no canonical
// representation: a non-nil hook is folded in as an opaque marker, so
// tweaked options never collide with untweaked ones, but two different
// hooks do collide — callers keying a cache on Fingerprint must not use
// Tweak (the job API cannot express it).
//
// Because the simulator is deterministic — reruns of one configuration
// are bit-identical — the fingerprint is a sound content address for
// completed results.
func (o Options) Fingerprint() string {
	h := sha256.New()
	for _, line := range o.canonicalLines() {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return fingerprintVersion + ":" + hex.EncodeToString(h.Sum(nil))
}

// canonicalLines renders every hashed field as a "key=value" line, sorted
// by key. Zero-valued fields are rendered too: omitting them would make
// "explicitly default" and "unset" hash differently from a future version
// that changes a default.
func (o Options) canonicalLines() []string {
	lines := []string{
		"ops_per_core=" + strconv.FormatUint(o.OpsPerCore, 10),
		"seed=" + strconv.FormatInt(o.Seed, 10),
		"check_invariants=" + strconv.FormatBool(o.CheckInvariants),
		"disable_prefetch=" + strconv.FormatBool(o.DisablePrefetch),
		"num_rings=" + strconv.Itoa(o.NumRings),
		"governor_budget=" + canonFloat(o.GovernorBudgetNJPerKCycle),
		"warmup_cycles=" + strconv.FormatUint(o.WarmupCycles, 10),
		"check_every=" + strconv.FormatUint(o.CheckEvery, 10),
		"watchdog_window=" + strconv.FormatUint(o.WatchdogWindow, 10),
		"watchdog_degrade=" + strconv.FormatBool(o.WatchdogDegrade),
		"tweak=" + strconv.FormatBool(o.Tweak != nil),
	}
	if o.Predictor == nil {
		lines = append(lines, "predictor=nil")
	} else {
		p := o.Predictor
		bits := make([]string, len(p.BloomFieldBits))
		for i, b := range p.BloomFieldBits {
			bits[i] = strconv.FormatUint(uint64(b), 10)
		}
		lines = append(lines,
			"predictor.kind="+strconv.Itoa(int(p.Kind)),
			"predictor.name="+p.Name,
			"predictor.entries="+strconv.Itoa(p.Entries),
			"predictor.assoc="+strconv.Itoa(p.Assoc),
			"predictor.bloom_bits="+strings.Join(bits, ","),
			"predictor.exclude_cache="+strconv.FormatBool(p.ExcludeCache),
			"predictor.access_cycles="+strconv.Itoa(p.AccessCycles),
		)
	}
	if len(o.AlgorithmsPerNode) == 0 {
		lines = append(lines, "algorithms_per_node=")
	} else {
		names := make([]string, len(o.AlgorithmsPerNode))
		for i, a := range o.AlgorithmsPerNode {
			// Node order is semantic: do not sort.
			names[i] = strconv.Itoa(int(a))
		}
		lines = append(lines, "algorithms_per_node="+strings.Join(names, ","))
	}
	if o.Faults == nil {
		lines = append(lines, "faults=nil")
	} else {
		lines = append(lines, "faults.max_retries="+strconv.Itoa(o.Faults.MaxRetries))
		for i, r := range o.Faults.Rules {
			// Rule order is semantic (rules stack): key by index.
			k := "faults.rule." + strconv.Itoa(i) + "."
			lines = append(lines,
				k+"kind="+strconv.Itoa(int(r.Kind)),
				k+"ring="+strconv.Itoa(r.Ring),
				k+"node="+strconv.Itoa(r.Node),
				k+"rate="+canonFloat(r.Rate),
				k+"from="+strconv.FormatUint(r.From, 10),
				k+"until="+strconv.FormatUint(r.Until, 10),
				k+"seed="+strconv.FormatUint(r.Seed, 10),
				k+"delay="+strconv.FormatUint(r.Delay, 10),
			)
		}
	}
	sort.Strings(lines)
	return lines
}

// canonFloat renders a float with the shortest representation that
// round-trips, so numerically equal values always hash identically.
func canonFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Job is one simulation unit of work in the shape a job server submits:
// an algorithm, a named workload, and the run options. It is the
// content-addressable counterpart of a Simulate call.
type Job struct {
	Algorithm Algorithm
	Workload  string
	Options   Options
}

// Fingerprint extends Options.Fingerprint with the algorithm and
// workload, giving the canonical cache key for the job's Result.
func (j Job) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "algorithm=%d\nworkload=%s\noptions=%s\n",
		int(j.Algorithm), j.Workload, j.Options.Fingerprint())
	return fingerprintVersion + ":" + hex.EncodeToString(h.Sum(nil))
}

// RunJobContext executes the job with cancellation. A nil ctx behaves
// like context.Background.
func RunJobContext(ctx context.Context, j Job) (Result, error) {
	return Simulate(ctx, j.Algorithm, FromWorkload(j.Workload), j.Options)
}
