package flexsnoop_test

// Tests for the context-aware entry points and the typed error sentinels:
// every sentinel must be reachable through errors.Is across the public
// API, and cancellation must be prompt without perturbing uncancelled
// runs.

import (
	"compress/gzip"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flexsnoop"
	"flexsnoop/internal/config"
	"flexsnoop/internal/trace"
	"flexsnoop/internal/workload"
)

func TestErrUnknownWorkloadIs(t *testing.T) {
	_, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("no-such-app"), flexsnoop.Options{OpsPerCore: 10})
	if !errors.Is(err, flexsnoop.ErrUnknownWorkload) {
		t.Errorf("Simulate(unknown workload) = %v, want ErrUnknownWorkload", err)
	}
	if _, err := flexsnoop.WorkloadByName("no-such-app"); !errors.Is(err, flexsnoop.ErrUnknownWorkload) {
		t.Errorf("WorkloadByName = %v, want ErrUnknownWorkload", err)
	}
	if err := flexsnoop.WriteTraceFile(filepath.Join(t.TempDir(), "x"), "no-such-app", 10, 1); !errors.Is(err, flexsnoop.ErrUnknownWorkload) {
		t.Errorf("WriteTraceFile(unknown workload) = %v, want ErrUnknownWorkload", err)
	}
}

func TestErrUnknownAlgorithmIs(t *testing.T) {
	_, err := flexsnoop.ParseAlgorithm("Zippy")
	if !errors.Is(err, flexsnoop.ErrUnknownAlgorithm) {
		t.Errorf("ParseAlgorithm = %v, want ErrUnknownAlgorithm", err)
	}
}

func TestErrBadConfigIs(t *testing.T) {
	// Governor budget on a non-adaptive algorithm is a configuration
	// error, caught before any simulation runs.
	_, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("fft"), flexsnoop.Options{
		OpsPerCore: 10, GovernorBudgetNJPerKCycle: 5,
	})
	if !errors.Is(err, flexsnoop.ErrBadConfig) {
		t.Errorf("governor on Lazy = %v, want ErrBadConfig", err)
	}
	// Wrong AlgorithmsPerNode length.
	_, err = flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("fft"), flexsnoop.Options{
		OpsPerCore:        10,
		AlgorithmsPerNode: []flexsnoop.Algorithm{flexsnoop.Lazy, flexsnoop.Eager},
	})
	if !errors.Is(err, flexsnoop.ErrBadConfig) {
		t.Errorf("wrong per-node length = %v, want ErrBadConfig", err)
	}
	// Options.Validate rejects impossible values directly.
	if err := (flexsnoop.Options{NumRings: -1}).Validate(); !errors.Is(err, flexsnoop.ErrBadConfig) {
		t.Errorf("Validate(NumRings: -1) = %v, want ErrBadConfig", err)
	}
	if err := (flexsnoop.Options{GovernorBudgetNJPerKCycle: -2}).Validate(); !errors.Is(err, flexsnoop.ErrBadConfig) {
		t.Errorf("Validate(negative budget) = %v, want ErrBadConfig", err)
	}
}

// TestBadGeometryIsBadConfig: every predictor or cache geometry the
// simulator cannot build is rejected with ErrBadConfig before the machine
// is built, never by a panic inside it.
func TestBadGeometryIsBadConfig(t *testing.T) {
	sub := func(entries, assoc int) *flexsnoop.PredictorConfig {
		return &flexsnoop.PredictorConfig{Kind: config.PredictorSubset, Name: "sub", Entries: entries, Assoc: assoc}
	}
	exa := func(entries, assoc int) *flexsnoop.PredictorConfig {
		return &flexsnoop.PredictorConfig{Kind: config.PredictorExact, Name: "exa", Entries: entries, Assoc: assoc}
	}
	sup := func(bits []uint, entries, assoc int) *flexsnoop.PredictorConfig {
		return &flexsnoop.PredictorConfig{Kind: config.PredictorSuperset, Name: "sup", Entries: entries, Assoc: assoc,
			BloomFieldBits: bits, ExcludeCache: true}
	}
	cases := []struct {
		name  string
		alg   flexsnoop.Algorithm
		pred  *flexsnoop.PredictorConfig
		tweak func(*flexsnoop.MachineConfig)
	}{
		{name: "subset 1000x8 (125 sets)", alg: flexsnoop.Subset, pred: sub(1000, 8)},
		{name: "subset zero entries", alg: flexsnoop.Subset, pred: sub(0, 8)},
		{name: "subset zero ways", alg: flexsnoop.Subset, pred: sub(512, 0)},
		{name: "subset 300 ways", alg: flexsnoop.Subset, pred: sub(600, 300)},
		{name: "subset 2^24 entries", alg: flexsnoop.Subset, pred: sub(1<<24, 8)},
		{name: "exact 24x8 (3 sets)", alg: flexsnoop.Exact, pred: exa(24, 8)},
		{name: "exact negative entries", alg: flexsnoop.Exact, pred: exa(-8, 8)},
		{name: "superset no fields", alg: flexsnoop.SupersetAgg, pred: sup(nil, 512, 8)},
		{name: "superset zero-width field", alg: flexsnoop.SupersetAgg, pred: sup([]uint{10, 0}, 512, 8)},
		{name: "superset 21-bit field", alg: flexsnoop.SupersetAgg, pred: sup([]uint{21}, 512, 8)},
		{name: "exclude cache 7x2", alg: flexsnoop.SupersetCon, pred: sup([]uint{10, 4, 7}, 7, 2)},
		{name: "exclude cache 3 sets", alg: flexsnoop.SupersetCon, pred: sup([]uint{10, 4, 7}, 24, 8)},
		{name: "exclude cache 256 ways", alg: flexsnoop.SupersetCon, pred: sup([]uint{10, 4, 7}, 512, 256)},
		{name: "unknown predictor kind", alg: flexsnoop.Subset, pred: &flexsnoop.PredictorConfig{Kind: 99, Entries: 512, Assoc: 8}},
		{name: "L1 256 ways", alg: flexsnoop.Lazy, tweak: func(m *flexsnoop.MachineConfig) {
			m.L1 = config.CacheConfig{SizeBytes: 256 * 64, Assoc: 256, LineBytes: 64}
		}},
		{name: "L2 512 ways", alg: flexsnoop.Lazy, tweak: func(m *flexsnoop.MachineConfig) {
			m.L2 = config.CacheConfig{SizeBytes: 1024 * 64, Assoc: 512, LineBytes: 64}
		}},
		{name: "L2 of 2^24 lines", alg: flexsnoop.Lazy, tweak: func(m *flexsnoop.MachineConfig) {
			m.L2 = config.CacheConfig{SizeBytes: 1 << 30, Assoc: 8, LineBytes: 64}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Simulate panicked: %v", r)
				}
			}()
			_, err := flexsnoop.Simulate(context.Background(), tc.alg, flexsnoop.FromWorkload("fft"), flexsnoop.Options{
				OpsPerCore: 10, Predictor: tc.pred, Tweak: tc.tweak,
			})
			if !errors.Is(err, flexsnoop.ErrBadConfig) {
				t.Errorf("Simulate = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestErrBadTraceIs(t *testing.T) {
	dir := t.TempDir()

	// Corrupt contents.
	corrupt := filepath.Join(dir, "corrupt.trace")
	if err := os.WriteFile(corrupt, []byte("definitely not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromTraceFile(corrupt), flexsnoop.Options{}); !errors.Is(err, flexsnoop.ErrBadTrace) {
		t.Errorf("corrupt trace = %v, want ErrBadTrace", err)
	}

	// Bad gzip envelope: a .gz path whose contents are not gzip.
	badGz := filepath.Join(dir, "bad.trace.gz")
	if err := os.WriteFile(badGz, []byte("not gzip either"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromTraceFile(badGz), flexsnoop.Options{}); !errors.Is(err, flexsnoop.ErrBadTrace) {
		t.Errorf("bad gzip envelope = %v, want ErrBadTrace", err)
	}

	// Truncated but well-formed prefix: gzip of a valid header cut short.
	truncated := filepath.Join(dir, "trunc.trace.gz")
	full := filepath.Join(dir, "full.trace")
	if err := flexsnoop.WriteTraceFile(full, "fft", 50, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(truncated)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write(data[:len(data)/3]); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromTraceFile(truncated), flexsnoop.Options{}); !errors.Is(err, flexsnoop.ErrBadTrace) {
		t.Errorf("truncated trace = %v, want ErrBadTrace", err)
	}

	// A stream count that does not map onto the machine's CMPs.
	mismatch := filepath.Join(dir, "mismatch.trace")
	prof, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]workload.Op, 3) // default machine has 8 CMPs
	for g := range streams {
		streams[g] = trace.Record(workload.NewGenerator(prof, g, 20, 1))
	}
	mf, err := os.Create(mismatch)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(mf, streams); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromTraceFile(mismatch), flexsnoop.Options{}); !errors.Is(err, flexsnoop.ErrBadTrace) {
		t.Errorf("3-stream trace on 8-CMP machine = %v, want ErrBadTrace", err)
	}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := flexsnoop.Simulate(ctx, flexsnoop.Lazy, flexsnoop.FromWorkload("fft"), flexsnoop.Options{OpsPerCore: 200})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Simulate(cancelled) = %v, want context.Canceled", err)
	}
}

func TestRunContextCancelIsPrompt(t *testing.T) {
	// Cancel mid-run and require a prompt return: the kernel polls the
	// context between events, so even a large simulation must stop in
	// well under a second of wall time once the context is done.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	start := make(chan struct{})
	go func() {
		close(start)
		_, err := flexsnoop.Simulate(ctx, flexsnoop.Eager, flexsnoop.FromWorkload("specjbb"), flexsnoop.Options{OpsPerCore: 200_000})
		errc <- err
	}()
	<-start
	time.Sleep(20 * time.Millisecond) // let the simulation get going
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return promptly")
	}
}

func TestRunContextDoesNotPerturbDeterminism(t *testing.T) {
	// A run under a live-but-never-cancelled context, and a run after an
	// aborted run, must both be cycle-identical to a Background run.
	opts := flexsnoop.Options{OpsPerCore: 400, Seed: 9}
	base, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("barnes"), opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := flexsnoop.Simulate(ctx, flexsnoop.SupersetAgg, flexsnoop.FromWorkload("barnes"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if withCtx.Cycles != base.Cycles || withCtx.Stats.SnoopsPerReadRequest() != base.Stats.SnoopsPerReadRequest() {
		t.Fatalf("context-bearing run diverged: %d vs %d cycles", withCtx.Cycles, base.Cycles)
	}

	// Abort one run, then check a fresh run still matches.
	aborted, abort := context.WithCancel(context.Background())
	abort()
	if _, err := flexsnoop.Simulate(aborted, flexsnoop.SupersetAgg, flexsnoop.FromWorkload("barnes"), opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted run returned %v", err)
	}
	again, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("barnes"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cycles != base.Cycles {
		t.Fatalf("run after an aborted run diverged: %d vs %d cycles", again.Cycles, base.Cycles)
	}
}

func TestFigureOptionsContextStopsMatrix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := flexsnoop.RunMatrix(flexsnoop.FigureOptions{
		OpsPerCore: 100, Apps: []string{"fft"}, Context: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunMatrix(cancelled ctx) = %v, want context.Canceled", err)
	}
}
