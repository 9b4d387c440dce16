package flexsnoop_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flexsnoop"
	"flexsnoop/internal/config"
)

func TestRunBasic(t *testing.T) {
	res, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("fft"), flexsnoop.Options{
		OpsPerCore: 400, CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Stats.ReadRequests == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Workload != "fft" || res.Algorithm != flexsnoop.Lazy {
		t.Errorf("result labels wrong: %s/%v", res.Workload, res.Algorithm)
	}
}

// TestSimulateSources: the unified entry point accepts every Source
// kind, gives a named workload and its profile bit-identical results,
// and rejects the zero Source with ErrBadConfig instead of guessing.
func TestSimulateSources(t *testing.T) {
	opts := flexsnoop.Options{OpsPerCore: 400}
	want, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("fft"), opts)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := flexsnoop.WorkloadByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	got, err := flexsnoop.Simulate(nil, flexsnoop.Lazy, flexsnoop.FromProfile(prof), opts) //lint:ignore SA1012 nil ctx is documented to mean Background
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Simulate(FromProfile) differs from Simulate(FromWorkload)")
	}

	if _, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.Source{}, opts); !errors.Is(err, flexsnoop.ErrBadConfig) {
		t.Errorf("zero Source: got %v, want ErrBadConfig", err)
	}
	if s := flexsnoop.FromWorkload("fft").String(); s != "workload:fft" {
		t.Errorf("Source.String() = %q", s)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("nope"), flexsnoop.Options{OpsPerCore: 10}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWorkloadsList(t *testing.T) {
	wls := flexsnoop.Workloads()
	if len(wls) != 13 {
		t.Fatalf("got %d workloads, want 13", len(wls))
	}
	for _, name := range wls {
		if _, err := flexsnoop.WorkloadByName(name); err != nil {
			t.Errorf("listed workload %q not resolvable: %v", name, err)
		}
	}
}

func TestPredictorsList(t *testing.T) {
	ps := flexsnoop.Predictors()
	for _, name := range []string{"Sub512", "Sub2k", "Sub8k", "Supy512", "Supy2k", "Supn2k", "Exa512", "Exa2k", "Exa8k"} {
		if _, ok := ps[name]; !ok {
			t.Errorf("predictor %q missing from registry", name)
		}
	}
	if len(ps) != 9 {
		t.Errorf("got %d predictors, want 9 (Section 5.2)", len(ps))
	}
}

func TestPredictorOverride(t *testing.T) {
	p := flexsnoop.Predictors()["Sub512"]
	res, err := flexsnoop.Simulate(context.Background(), flexsnoop.Subset, flexsnoop.FromWorkload("lu"), flexsnoop.Options{
		OpsPerCore: 400, Predictor: &p,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Predictor != "Sub512" {
		t.Errorf("predictor = %s, want Sub512", res.Predictor)
	}
}

// TestPredictorAccessCycles pins where PredictorConfig.AccessCycles acts
// on timing: a snoop whose forwarding decision consulted the predictor
// waits that many cycles, so a slower predictor lengthens a SupersetAgg
// run. Lazy and Eager never consult one, so their Results stay identical
// (the field's other reader, the snoop-response deadline, only fires
// under a fault plan).
func TestPredictorAccessCycles(t *testing.T) {
	run := func(alg flexsnoop.Algorithm, extra int) flexsnoop.Result {
		t.Helper()
		p := config.DefaultPredictorFor(alg)
		p.AccessCycles += extra
		res, err := flexsnoop.Simulate(context.Background(), alg, flexsnoop.FromWorkload("barnes"),
			flexsnoop.Options{OpsPerCore: 200, Predictor: &p})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		return res
	}
	if base, slow := run(flexsnoop.SupersetAgg, 0), run(flexsnoop.SupersetAgg, 10); slow.Cycles <= base.Cycles {
		t.Errorf("SupersetAgg: %d cycles with 10 more predictor access cycles, want more than %d", slow.Cycles, base.Cycles)
	}
	for _, alg := range []flexsnoop.Algorithm{flexsnoop.Lazy, flexsnoop.Eager} {
		if base, slow := run(alg, 0), run(alg, 10); !reflect.DeepEqual(base, slow) {
			t.Errorf("%s: Result changed with the predictor's access cycles (%d → %d cycles)", alg, base.Cycles, slow.Cycles)
		}
	}
}

func TestOptionsTweak(t *testing.T) {
	tweaked := false
	_, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("fft"), flexsnoop.Options{
		OpsPerCore: 200,
		Tweak: func(m *flexsnoop.MachineConfig) {
			tweaked = true
			m.RingLinkCycles = 10
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tweaked {
		t.Error("Tweak never called")
	}
	// An invalid tweak is rejected before simulation.
	_, err = flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("fft"), flexsnoop.Options{
		OpsPerCore: 200,
		Tweak:      func(m *flexsnoop.MachineConfig) { m.RingLinkCycles = 0 },
	})
	if err == nil {
		t.Error("invalid tweak accepted")
	}
}

func TestFasterRingIsFaster(t *testing.T) {
	slow, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("barnes"), flexsnoop.Options{OpsPerCore: 500})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("barnes"), flexsnoop.Options{
		OpsPerCore: 500,
		Tweak:      func(m *flexsnoop.MachineConfig) { m.RingLinkCycles = 5 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cycles >= slow.Cycles {
		t.Errorf("5-cycle links (%d cycles) not faster than 39-cycle links (%d)",
			fast.Cycles, slow.Cycles)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "web.trace")
	if err := flexsnoop.WriteTraceFile(path, "specweb", 300, 7); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}
	// Replay equals generator-driven run.
	fromTrace, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetCon, flexsnoop.FromTraceFile(path), flexsnoop.Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	fromGen, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetCon, flexsnoop.FromWorkload("specweb"), flexsnoop.Options{OpsPerCore: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if fromTrace.Cycles != fromGen.Cycles {
		t.Errorf("trace replay %d cycles, generator %d", fromTrace.Cycles, fromGen.Cycles)
	}
}

func TestRunTraceFileErrors(t *testing.T) {
	if _, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromTraceFile("/nonexistent"), flexsnoop.Options{}); err == nil {
		t.Error("missing trace file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromTraceFile(bad), flexsnoop.Options{}); err == nil {
		t.Error("corrupt trace accepted")
	}
}

func TestParseAlgorithm(t *testing.T) {
	a, err := flexsnoop.ParseAlgorithm("SupersetAgg")
	if err != nil || a != flexsnoop.SupersetAgg {
		t.Errorf("ParseAlgorithm = %v, %v", a, err)
	}
	if _, err := flexsnoop.ParseAlgorithm("Zippy"); err == nil {
		t.Error("bad algorithm name accepted")
	}
}

func TestDefaultMachineExported(t *testing.T) {
	m := flexsnoop.DefaultMachine()
	if m.NumCMPs != 8 || m.RingLinkCycles != 39 {
		t.Errorf("DefaultMachine = %+v", m)
	}
}

func TestHeterogeneousRing(t *testing.T) {
	// A ring where nodes run different primitives: messages split and
	// recombine multiple times (the paper's Table 2 general case).
	mixed := []flexsnoop.Algorithm{
		flexsnoop.Lazy, flexsnoop.Eager, flexsnoop.SupersetAgg, flexsnoop.SupersetCon,
		flexsnoop.Subset, flexsnoop.Eager, flexsnoop.Lazy, flexsnoop.SupersetAgg,
	}
	p := flexsnoop.Predictors()["Supy2k"]
	res, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("barnes"), flexsnoop.Options{
		OpsPerCore:        600,
		CheckInvariants:   true,
		AlgorithmsPerNode: mixed,
		Predictor:         &p,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Stats.ReadRequests == 0 {
		t.Fatal("heterogeneous run produced nothing")
	}
	// Snoop counts land between the homogeneous extremes.
	s := res.Stats.SnoopsPerReadRequest()
	if s <= 1 || s >= 7 {
		t.Errorf("mixed-ring snoops/request = %.2f, want strictly between 1 and 7", s)
	}
}

func TestHeterogeneousRingWrongLength(t *testing.T) {
	_, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("fft"), flexsnoop.Options{
		OpsPerCore:        100,
		AlgorithmsPerNode: []flexsnoop.Algorithm{flexsnoop.Lazy, flexsnoop.Eager},
	})
	if err == nil {
		t.Error("wrong per-node algorithm count accepted")
	}
}

func TestGzipTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "jbb.trace")
	gzipped := filepath.Join(dir, "jbb.trace.gz")
	if err := flexsnoop.WriteTraceFile(plain, "specjbb", 400, 3); err != nil {
		t.Fatal(err)
	}
	if err := flexsnoop.WriteTraceFile(gzipped, "specjbb", 400, 3); err != nil {
		t.Fatal(err)
	}
	fp, _ := os.Stat(plain)
	fg, _ := os.Stat(gzipped)
	if fg.Size() >= fp.Size() {
		t.Errorf("gzip trace (%d B) not smaller than plain (%d B)", fg.Size(), fp.Size())
	}
	a, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromTraceFile(plain), flexsnoop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromTraceFile(gzipped), flexsnoop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("gzip replay diverged: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}
