package flexsnoop_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"flexsnoop"
)

// TestConcurrentCancellation hammers Simulate from many goroutines
// while cancelling a random subset mid-flight, under -race in CI. It
// checks the three properties cancellation must preserve:
//
//  1. a cancelled run reports context.Canceled (never a corrupt result),
//  2. no goroutines leak, whichever way a run ends,
//  3. pooled hot-path objects are not corrupted across runs — completed
//     runs after the storm are still bit-identical to a quiet baseline.
func TestConcurrentCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation storm is not short")
	}

	type cfg struct {
		alg  flexsnoop.Algorithm
		opts flexsnoop.Options
	}
	configs := []cfg{
		{flexsnoop.SupersetAgg, flexsnoop.Options{OpsPerCore: 1500, Seed: 11}},
		{flexsnoop.Subset, flexsnoop.Options{OpsPerCore: 1500, Seed: 12}},
		{flexsnoop.Lazy, flexsnoop.Options{OpsPerCore: 1500, Seed: 13}},
		{flexsnoop.Exact, flexsnoop.Options{OpsPerCore: 1500, Seed: 14}},
	}
	baseline := make([]flexsnoop.Result, len(configs))
	for i, c := range configs {
		res, err := flexsnoop.Simulate(context.Background(), c.alg, flexsnoop.FromWorkload("fft"), c.opts)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		baseline[i] = res
	}

	before := runtime.NumGoroutine()

	const (
		waves      = 4
		perWave    = 16
		cancelFrac = 2 // every second run gets cancelled mid-flight
	)
	rng := rand.New(rand.NewSource(1))
	delays := make([][]time.Duration, waves)
	for w := range delays {
		delays[w] = make([]time.Duration, perWave)
		for g := range delays[w] {
			delays[w][g] = time.Duration(rng.Intn(2000)) * time.Microsecond
		}
	}

	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		for g := 0; g < perWave; g++ {
			wg.Add(1)
			go func(w, g int) {
				defer wg.Done()
				c := configs[g%len(configs)]
				ctx := context.Background()
				cancelled := g%cancelFrac == 0
				if cancelled {
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					timer := time.AfterFunc(delays[w][g], cancel)
					defer timer.Stop()
					defer cancel()
				}
				res, err := flexsnoop.Simulate(ctx, c.alg, flexsnoop.FromWorkload("fft"), c.opts)
				switch {
				case err == nil:
					// The cancel may have fired after completion; either
					// way a returned result must be the deterministic one.
					if !reflect.DeepEqual(res, baseline[g%len(configs)]) {
						t.Errorf("wave %d goroutine %d: completed result differs from baseline", w, g)
					}
				case errors.Is(err, context.Canceled):
					if !cancelled {
						t.Errorf("wave %d goroutine %d: spurious cancellation", w, g)
					}
				default:
					t.Errorf("wave %d goroutine %d: unexpected error %v", w, g, err)
				}
			}(w, g)
		}
		wg.Wait()
	}

	// After the storm, quiet reruns must still be bit-identical: a
	// cancelled run that returned corrupted objects to the hot-path pools
	// would poison later runs.
	for i, c := range configs {
		res, err := flexsnoop.Simulate(context.Background(), c.alg, flexsnoop.FromWorkload("fft"), c.opts)
		if err != nil {
			t.Fatalf("post-storm rerun %d: %v", i, err)
		}
		if !reflect.DeepEqual(res, baseline[i]) {
			t.Errorf("post-storm rerun %d differs from baseline (pooled-object corruption?)", i)
		}
	}

	// No goroutine leaks: cancelled runs must unwind whatever they
	// started.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
