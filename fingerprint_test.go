package flexsnoop

import (
	"reflect"
	"strings"
	"testing"
)

// fullOptions returns an Options value with every hashed field set to a
// non-default value, so the golden hash below covers the whole schema.
func fullOptions(t *testing.T) Options {
	t.Helper()
	p := Predictors()["Supy2k"]
	faults, err := ParseFaultPlan("kind=drop,rate=0.05,seed=1;kind=delay,rate=0.1,delay=80,seed=2")
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		OpsPerCore: 3000, Seed: 7, Predictor: &p, CheckInvariants: true,
		DisablePrefetch: true, NumRings: 4, GovernorBudgetNJPerKCycle: 2.5,
		WarmupCycles: 1000,
		AlgorithmsPerNode: []Algorithm{
			Lazy, Eager, Oracle, Subset, SupersetCon, SupersetAgg, Exact, Lazy},
		Faults: faults, CheckEvery: 5000, WatchdogWindow: 100000,
		WatchdogDegrade: true,
	}
}

// TestFingerprintGolden pins the canonical hashes. A failure here means
// the Options schema or its canonical encoding drifted: if that was
// intentional, bump fingerprintVersion (old cached results must not be
// served for a differently-interpreted configuration) and update the
// constants; if not, the fingerprint just silently changed meaning and
// every persistent cache keyed on it would go stale — fix the encoding.
func TestFingerprintGolden(t *testing.T) {
	const (
		wantZero = "fsn2:df95efc80655df2a702a075fa7ca3a4c8ec42d6f8d8c5fe3513949622a4f6c72"
		wantFull = "fsn2:45605c5a425cbab233cd9fa063bdb3b536fc063c5d762f825b3f15f835cf863a"
		wantJob  = "fsn2:e836c4260ede67cd3f404d1ad4d92deb285e9c84cbc5da8f33ebe6d3145af694"
	)
	if got := (Options{}).Fingerprint(); got != wantZero {
		t.Errorf("zero Options fingerprint drifted:\n got %s\nwant %s", got, wantZero)
	}
	if got := fullOptions(t).Fingerprint(); got != wantFull {
		t.Errorf("full Options fingerprint drifted:\n got %s\nwant %s", got, wantFull)
	}
	j := Job{Algorithm: SupersetAgg, Workload: "fft", Options: Options{OpsPerCore: 300, Seed: 1}}
	if got := j.Fingerprint(); got != wantJob {
		t.Errorf("Job fingerprint drifted:\n got %s\nwant %s", got, wantJob)
	}
}

// TestFingerprintSchemaComplete walks Options with reflection and fails
// when a field is neither hashed nor on the documented exclusion list —
// the guard that catches a new Options field being added without a
// Fingerprint (and fingerprintVersion) update.
func TestFingerprintSchemaComplete(t *testing.T) {
	hashed := map[string]bool{
		"OpsPerCore": true, "Seed": true, "Predictor": true,
		"CheckInvariants": true, "DisablePrefetch": true, "NumRings": true,
		"GovernorBudgetNJPerKCycle": true, "WarmupCycles": true,
		"AlgorithmsPerNode": true, "Faults": true, "CheckEvery": true,
		"WatchdogWindow": true, "WatchdogDegrade": true,
		"Tweak": true, // opaque marker only; see Fingerprint docs
	}
	excluded := map[string]bool{
		"Telemetry": true, // zero-perturbation: results identical with it on or off
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !hashed[name] && !excluded[name] {
			t.Errorf("Options.%s is neither hashed by Fingerprint nor on its exclusion list; "+
				"extend canonicalLines (and bump fingerprintVersion) or document the exclusion", name)
		}
	}
	for name := range hashed {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("Fingerprint hashes Options.%s, which no longer exists", name)
		}
	}
}

// TestFingerprintDistinguishes checks that each result-affecting knob
// moves the hash, and that equal configurations built differently agree.
func TestFingerprintDistinguishes(t *testing.T) {
	base := Options{OpsPerCore: 300, Seed: 1}
	if base.Fingerprint() != (Options{OpsPerCore: 300, Seed: 1}).Fingerprint() {
		t.Fatal("identical options disagree")
	}
	variants := map[string]Options{
		"ops":      {OpsPerCore: 301, Seed: 1},
		"seed":     {OpsPerCore: 300, Seed: 2},
		"rings":    {OpsPerCore: 300, Seed: 1, NumRings: 3},
		"warmup":   {OpsPerCore: 300, Seed: 1, WarmupCycles: 10},
		"watchdog": {OpsPerCore: 300, Seed: 1, WatchdogWindow: 5},
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, o := range variants {
		fp := o.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[fp] = name
	}
	// Fault plans: rule content and order are semantic.
	p1, err := ParseFaultPlan("kind=drop,rate=0.05;kind=delay,delay=10")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParseFaultPlan("kind=delay,delay=10;kind=drop,rate=0.05")
	if err != nil {
		t.Fatal(err)
	}
	a := Options{Faults: p1}
	b := Options{Faults: p2}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("reordered fault rules should hash differently (rules stack in order)")
	}
	// Telemetry is excluded: observability must not split the cache key.
	tel := Options{OpsPerCore: 300, Seed: 1, Telemetry: &TelemetryOptions{IntervalCycles: 100}}
	if tel.Fingerprint() != base.Fingerprint() {
		t.Error("telemetry-only difference changed the fingerprint")
	}
	// A Tweak hook marks the options as non-canonical but must not
	// collide with the untweaked configuration.
	tw := Options{OpsPerCore: 300, Seed: 1, Tweak: func(*MachineConfig) {}}
	if tw.Fingerprint() == base.Fingerprint() {
		t.Error("Tweak-bearing options collide with untweaked ones")
	}
	if !strings.HasPrefix(base.Fingerprint(), "fsn2:") {
		t.Errorf("fingerprint missing version prefix: %s", base.Fingerprint())
	}
}

// TestJobFingerprint covers the job-level key: algorithm and workload
// must separate jobs that share options.
func TestJobFingerprint(t *testing.T) {
	o := Options{OpsPerCore: 300, Seed: 1}
	a := Job{Algorithm: Lazy, Workload: "fft", Options: o}
	b := Job{Algorithm: Eager, Workload: "fft", Options: o}
	c := Job{Algorithm: Lazy, Workload: "lu", Options: o}
	if a.Fingerprint() == b.Fingerprint() || a.Fingerprint() == c.Fingerprint() {
		t.Error("jobs differing in algorithm or workload share a fingerprint")
	}
	if a.Fingerprint() != (Job{Algorithm: Lazy, Workload: "fft", Options: o}).Fingerprint() {
		t.Error("identical jobs disagree")
	}
}
