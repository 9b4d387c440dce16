package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunInOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		k.Schedule(at, func() { got = append(got, at) })
	}
	k.RunAll()
	want := []Time{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d ran at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSameCycleFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	k.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events ran out of order: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	k := NewKernel()
	var fired Time
	k.Schedule(100, func() {
		k.After(50, func() { fired = k.Now() })
	})
	k.RunAll()
	if fired != 150 {
		t.Errorf("After(50) from t=100 fired at %d, want 150", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.Schedule(50, func() {})
	})
	k.RunAll()
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil event function did not panic")
		}
	}()
	NewKernel().Schedule(0, nil)
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	ran := false
	e := k.Schedule(10, func() { ran = true })
	k.Cancel(e)
	k.RunAll()
	if ran {
		t.Error("cancelled event still ran")
	}
	// Double-cancel and cancel-after-run must be no-ops.
	k.Cancel(e)
	e2 := k.Schedule(k.Now()+1, func() {})
	k.RunAll()
	k.Cancel(e2)
}

func TestCancelZeroHandle(t *testing.T) {
	NewKernel().Cancel(Handle{}) // must not panic
}

func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	// After an event fires, its storage is recycled; a stale handle must
	// not be able to cancel the next occupant.
	k := NewKernel()
	h := k.Schedule(1, func() {})
	k.RunAll()
	if h.Pending() {
		t.Fatal("handle still pending after its event ran")
	}
	ran := false
	h2 := k.Schedule(k.Now()+1, func() { ran = true })
	k.Cancel(h) // stale: must not touch the recycled slot
	k.RunAll()
	if !ran {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if h2.Pending() {
		t.Fatal("fired event's handle still pending")
	}
}

func TestEventStorageIsRecycled(t *testing.T) {
	// A schedule/run steady state must stop allocating: the free list
	// serves every request once primed.
	k := NewKernel()
	for i := 0; i < 10_000; i++ {
		k.Schedule(k.Now(), func() {})
		k.RunAll()
	}
	if free := k.FreeEvents(); free > 2*eventSlabSize {
		t.Errorf("free list grew to %d events; recycling is not steady-state", free)
	}
}

func TestScheduleArg(t *testing.T) {
	k := NewKernel()
	var got []int
	fn := func(a any) { got = append(got, a.(int)) }
	k.ScheduleArg(5, fn, 1)
	k.AfterArg(2, fn, 2)
	k.RunAll()
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("ScheduleArg order/args wrong: %v", got)
	}
}

func TestInterruptStopsRun(t *testing.T) {
	k := NewKernel()
	stop := false
	stopErr := errTest("interrupted")
	k.Interrupt = func() error {
		if stop {
			return stopErr
		}
		return nil
	}
	count := 0
	var tick func()
	tick = func() {
		count++
		if count == 1000 {
			stop = true
		}
		k.After(1, tick)
	}
	k.Schedule(0, tick)
	k.RunAll()
	if k.Err() != stopErr {
		t.Fatalf("Err = %v, want %v", k.Err(), stopErr)
	}
	// The interrupt is polled every interruptStride events, so the run
	// must stop promptly after the flag flips.
	if count < 1000 || count > 1000+interruptStride {
		t.Fatalf("interrupt was not prompt: %d events ran", count)
	}
	if k.Pending() == 0 {
		t.Fatal("interrupted run drained the queue")
	}
}

func TestNilInterruptIdenticalSchedule(t *testing.T) {
	// An installed-but-never-firing Interrupt must not change what runs.
	run := func(withInterrupt bool) (times []Time, executed uint64) {
		k := NewKernel()
		if withInterrupt {
			k.Interrupt = func() error { return nil }
		}
		for i := 0; i < 300; i++ {
			k.Schedule(Time(i*3%71), func() { times = append(times, k.Now()) })
		}
		k.RunAll()
		return times, k.Executed
	}
	a, ea := run(false)
	b, eb := run(true)
	if ea != eb || len(a) != len(b) {
		t.Fatalf("interrupt perturbed execution: %d/%d events", ea, eb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d at %d vs %d", i, a[i], b[i])
		}
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestRunLimit(t *testing.T) {
	k := NewKernel()
	var ran []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		k.Schedule(at, func() { ran = append(ran, at) })
	}
	k.Run(25)
	if len(ran) != 2 {
		t.Fatalf("Run(25) executed %d events, want 2", len(ran))
	}
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
	k.RunAll()
	if len(ran) != 4 {
		t.Fatalf("RunAll left events behind: ran %d", len(ran))
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 0; i < 10; i++ {
		k.Schedule(Time(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run(MaxTime)
	if count != 3 {
		t.Errorf("Stop did not halt run: executed %d events", count)
	}
	if k.Pending() != 7 {
		t.Errorf("Pending = %d after Stop, want 7", k.Pending())
	}
}

// TestStopFromEndCycle: a Stop from the EndCycle hook ends Run at that
// cycle; the next cycle's event stays pending.
func TestStopFromEndCycle(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.Schedule(5, func() { ran++ })
	k.Schedule(900, func() { ran++ })
	k.EndCycle = func(Time) { k.Stop() }
	if now := k.Run(MaxTime); now != 5 || ran != 1 || k.Pending() != 1 {
		t.Errorf("Run = cycle %d with %d events run, %d pending; want cycle 5, 1 run, 1 pending", now, ran, k.Pending())
	}
}

func TestExecutedCount(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 5; i++ {
		k.Schedule(Time(i), func() {})
	}
	k.RunAll()
	if k.Executed != 5 {
		t.Errorf("Executed = %d, want 5", k.Executed)
	}
}

func TestCascadingEvents(t *testing.T) {
	// Events scheduled by events must run, including chains.
	k := NewKernel()
	depth := 0
	var descend func()
	descend = func() {
		depth++
		if depth < 100 {
			k.After(1, descend)
		}
	}
	k.Schedule(0, descend)
	end := k.RunAll()
	if depth != 100 {
		t.Errorf("chain depth = %d, want 100", depth)
	}
	if end != 99 {
		t.Errorf("final time = %d, want 99", end)
	}
}

// TestPropertyOrdering checks, for random event sets, that execution order
// is exactly the (time, insertion) sort of the input.
func TestPropertyOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) > 200 {
			times = times[:200]
		}
		k := NewKernel()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, raw := range times {
			at := Time(raw)
			i := i
			k.Schedule(at, func() { got = append(got, rec{at, i}) })
		}
		k.RunAll()
		want := make([]rec, 0, len(times))
		for i, raw := range times {
			want = append(want, rec{Time(raw), i})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRandomCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	k := NewKernel()
	var events []Handle
	ran := map[int]bool{}
	for i := 0; i < 500; i++ {
		i := i
		events = append(events, k.Schedule(Time(rng.Intn(1000)), func() { ran[i] = true }))
	}
	cancelled := map[int]bool{}
	for i := 0; i < 250; i++ {
		j := rng.Intn(len(events))
		k.Cancel(events[j])
		cancelled[j] = true
	}
	k.RunAll()
	for i := range events {
		if cancelled[i] && ran[i] {
			t.Fatalf("event %d ran despite cancellation", i)
		}
		if !cancelled[i] && !ran[i] {
			t.Fatalf("event %d never ran", i)
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 1000; j++ {
			k.Schedule(Time(j%97), func() {})
		}
		k.RunAll()
	}
}
