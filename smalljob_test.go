package flexsnoop_test

import (
	"context"
	"runtime"
	"testing"

	"flexsnoop"
)

// TestSmallJobAllocatesInProportion: a one-reference job in the shape of
// the service benchmark's jobs (SupersetAgg on barnes, fault injection and
// the continuous checker armed) must build a machine sized by what it can
// touch. Every such job still builds all 32 cores' caches, 8 nodes'
// predictors and the fault and checker machinery, but none of the
// tables presized for jobs of hundreds of references per core.
func TestSmallJobAllocatesInProportion(t *testing.T) {
	plan, err := flexsnoop.ParseFaultPlan("kind=drop,rate=0.02,seed=7;kind=delay,rate=0.05,delay=80,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	job := func(seed int64) {
		opts := flexsnoop.Options{OpsPerCore: 1, Seed: seed, Faults: plan, CheckEvery: 5000}
		if _, err := flexsnoop.Simulate(ctx, flexsnoop.SupersetAgg, flexsnoop.FromWorkload("barnes"), opts); err != nil {
			t.Fatal(err)
		}
	}
	job(1) // warm the package's one-time state
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seed := int64(1); seed <= runs; seed++ {
		job(seed)
	}
	runtime.ReadMemStats(&after)
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("1-op job: %.0f bytes, %.0f allocs", perJob, float64(after.Mallocs-before.Mallocs)/runs)
	if perJob >= 1<<20 {
		t.Errorf("a 1-op job allocates %.0f bytes, want under 1 MiB", perJob)
	}
}
