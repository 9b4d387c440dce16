package flexsnoop

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunPoolReportsEveryFailure(t *testing.T) {
	errA := errors.New("job A failed")
	errB := errors.New("job B failed")
	// Two concurrent failures: both must surface in the joined error.
	var gate sync.WaitGroup
	gate.Add(2)
	fail := func(e error) poolJob {
		return poolJob{run: func() error {
			gate.Done()
			gate.Wait() // both failures in flight together
			return e
		}}
	}
	err := runPoolContext(context.Background(), 2, []poolJob{fail(errA), fail(errB)})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("joined error lost a failure: %v", err)
	}
}

func TestRunPoolStopsLaunchingAfterFailure(t *testing.T) {
	// Sequential pool: the first job fails, so later jobs never start.
	var started atomic.Int32
	jobs := make([]poolJob, 10)
	jobs[0] = poolJob{run: func() error {
		started.Add(1)
		return fmt.Errorf("boom")
	}}
	for i := 1; i < len(jobs); i++ {
		jobs[i] = poolJob{run: func() error {
			started.Add(1)
			return nil
		}}
	}
	err := runPoolContext(context.Background(), 1, jobs)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want the failure, got %v", err)
	}
	if n := started.Load(); n != 1 {
		t.Errorf("%d jobs ran after the failure; want the pool to stop at 1", n)
	}
}

func TestRunPoolContextCancelWinsRaceWithJobError(t *testing.T) {
	// A job fails only after the context is already cancelled; the launch
	// loop has no further jobs, so only the post-drain check can see the
	// cancellation. Callers must still observe context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	jobErr := errors.New("job failed during cancellation")
	jobs := []poolJob{{run: func() error {
		cancel() // cancellation and the job error race; both in flight
		return jobErr
	}}}
	err := runPoolContext(ctx, 2, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pool did not report context.Canceled: %v", err)
	}
	if !errors.Is(err, jobErr) {
		t.Fatalf("joined error lost the job failure: %v", err)
	}
}

func TestRunPoolContextCancelNotDoubleJoined(t *testing.T) {
	// When the launch loop itself observes the cancellation, the context
	// error must appear exactly once in the joined result.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := runPoolContext(ctx, 1, []poolJob{{run: func() error { return nil }}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pool did not report context.Canceled: %v", err)
	}
	if n := strings.Count(err.Error(), context.Canceled.Error()); n != 1 {
		t.Fatalf("context error joined %d times, want once: %v", n, err)
	}
}

func TestRunPoolRunsEverythingOnSuccess(t *testing.T) {
	var ran atomic.Int32
	jobs := make([]poolJob, 23)
	for i := range jobs {
		jobs[i] = poolJob{run: func() error {
			ran.Add(1)
			return nil
		}}
	}
	if err := runPoolContext(context.Background(), 4, jobs); err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 23 {
		t.Errorf("ran %d of 23 jobs", n)
	}
}
