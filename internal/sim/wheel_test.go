package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// These tests pin down the timing-wheel internals that the generic kernel
// tests in sim_test.go cannot reach: spill-list cancellation, handle
// generations across wheel rotations, FIFO order when same-cycle events
// migrate in from different wheel levels, the EndCycle batch hook, and a
// randomized cross-check against a reference sorted-list scheduler.

// TestCancelSpilledFarFutureEvent cancels events that live in the sorted
// spill (beyond the 65,536-cycle wheel horizon) and checks the remaining
// spill events still fire in order.
func TestCancelSpilledFarFutureEvent(t *testing.T) {
	k := NewKernel()
	var fired []Time
	var handles []Handle
	// Five spill residents, far past the wheel horizon.
	for i := 0; i < 5; i++ {
		at := Time(wheelSpan*2 + i*wheelSpan/2)
		handles = append(handles, k.Schedule(at, func() { fired = append(fired, k.Now()) }))
	}
	// Cancel the first, middle and last while they are still spilled.
	for _, i := range []int{0, 2, 4} {
		k.Cancel(handles[i])
		if handles[i].Pending() {
			t.Fatalf("handle %d still pending after Cancel", i)
		}
	}
	if got := k.Pending(); got != 2 {
		t.Fatalf("Pending = %d after cancelling 3 of 5 spilled events, want 2", got)
	}
	k.RunAll()
	want := []Time{wheelSpan*2 + wheelSpan/2, wheelSpan*2 + 3*wheelSpan/2}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	// Cancelling the survivors' now-stale handles must be a no-op.
	for _, h := range handles {
		k.Cancel(h)
	}
}

// TestCancelSpilledThenScheduleNearer checks that a cancelled spill event
// does not block the spill refill when the wheel re-bases onto the spill.
func TestCancelSpilledThenScheduleNearer(t *testing.T) {
	k := NewKernel()
	ran := false
	dead := k.Schedule(Time(wheelSpan*3), func() { t.Fatal("cancelled event ran") })
	live := k.Schedule(Time(wheelSpan*3+7), func() { ran = true })
	k.Cancel(dead)
	end := k.RunAll()
	if !ran {
		t.Fatal("live spill event never ran")
	}
	if end != Time(wheelSpan*3+7) {
		t.Fatalf("RunAll returned %d, want %d", end, wheelSpan*3+7)
	}
	_ = live
}

// TestHandleGenerationAcrossRotation drives the wheel through full
// rotations while recycling event storage, and checks that a handle from
// an earlier occupant can never cancel a later one.
func TestHandleGenerationAcrossRotation(t *testing.T) {
	k := NewKernel()
	var stale []Handle
	fired := 0
	// Fire one event per near-wheel rotation for eight rotations. With a
	// single event in flight, every Schedule reuses the same slab slot, so
	// each retained handle points at recycled storage.
	var step func()
	step = func() {
		fired++
		if fired < 8 {
			stale = append(stale, k.After(Time(nearSlots), step))
		}
	}
	stale = append(stale, k.Schedule(0, step))
	k.RunAll()
	if fired != 8 {
		t.Fatalf("fired %d events, want 8", fired)
	}
	for i, h := range stale {
		if h.Pending() {
			t.Fatalf("handle %d from rotation %d still pending after firing", i, i)
		}
	}
	// A stale handle must not cancel the storage's next occupant.
	h := k.Schedule(k.Now()+Time(wheelSpan)+5, func() { fired++ })
	for _, s := range stale {
		k.Cancel(s)
	}
	if !h.Pending() {
		t.Fatal("stale handles cancelled a live event in recycled storage")
	}
	k.RunAll()
	if fired != 9 {
		t.Fatalf("live event lost: fired %d, want 9", fired)
	}
}

// TestSameCycleFIFOAcrossMigrations schedules events for one target cycle
// from three distances — direct near-wheel, overflow-wheel, and spill — so
// they converge on the same slot via different migration paths (cascade
// and spill refill). Execution order must still be schedule order.
func TestSameCycleFIFOAcrossMigrations(t *testing.T) {
	k := NewKernel()
	// 200 past a rotation boundary, so the final schedule below lands in
	// the near window rather than one slot past it.
	target := Time(wheelSpan + wheelSpan/2 + 200)
	var order []int
	log := func(i int) func() { return func() { order = append(order, i) } }

	// seq 0: spill resident (target is past the wheel horizon at schedule
	// time).
	k.Schedule(target, log(0))
	// Walk the clock close enough that the next schedule lands in the
	// overflow wheel, then the near wheel.
	k.Schedule(target-Time(wheelSpan/2), func() {
		// Now = target - wheelSpan/2: target is inside the horizon but past
		// the near window, so this lands in the overflow wheel.
		k.Schedule(target, log(1))
		k.Schedule(target-100, func() {
			// Now = target - 100, same near window as target: direct near
			// append.
			k.Schedule(target, log(2))
		})
	})
	k.RunAll()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("same-cycle events ran out of schedule order: %v", order)
	}
}

// TestEndCycleBatching pins the EndCycle contract: it runs once per
// executed cycle after the cycle's events drain, and same-cycle events it
// schedules are drained (and the hook re-fired) before the clock moves.
func TestEndCycleBatching(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.EndCycle = func(now Time) {
		trace = append(trace, "end")
		if now == 10 && len(trace) == 3 { // first EndCycle at cycle 10
			k.Schedule(10, func() { trace = append(trace, "late") })
		}
	}
	k.Schedule(10, func() { trace = append(trace, "a") })
	k.Schedule(10, func() { trace = append(trace, "b") })
	k.Schedule(12, func() { trace = append(trace, "c") })
	k.Run(12)
	// Cycle 10: a, b, end, late (added by the hook), end again; cycle 12:
	// c, end.
	want := []string{"a", "b", "end", "late", "end", "c", "end"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}

}

// refEvent is one entry of the reference scheduler used by the
// cross-check tests. A sweeper, when it runs, cancels every event still
// due in its own cycle; those sit in the kernel's running batch.
type refEvent struct {
	when      Time
	seq       int
	cancelled bool
	sweeper   bool
}

// refOrder returns the sequence numbers of the events the reference
// scheduler runs, in order: (when, seq) order, skipping cancelled events
// and applying each sweeper that runs to the rest of its cycle.
func refOrder(ref []*refEvent) []int {
	live := append([]*refEvent(nil), ref...)
	sort.SliceStable(live, func(a, b int) bool {
		if live[a].when != live[b].when {
			return live[a].when < live[b].when
		}
		return live[a].seq < live[b].seq
	})
	var want []int
	for i, re := range live {
		if re.cancelled {
			continue
		}
		want = append(want, re.seq)
		if !re.sweeper {
			continue
		}
		for _, later := range live[i+1:] {
			if later.when != re.when {
				break
			}
			later.cancelled = true
		}
	}
	return want
}

// TestWheelMatchesReferenceScheduler drives the kernel with randomized
// schedules and cancellations spanning all three wheel regions, and
// checks the execution order against a trivial sorted-list reference.
// Some in-run cancels hit an event due in the running cycle, which the
// kernel has already moved into its batch, and some runs stop mid-batch,
// so the batch's remainder (cancelled entries included) is requeued.
func TestWheelMatchesReferenceScheduler(t *testing.T) {
	// Offsets are drawn across the near band, overflow band, spill band
	// and the exact region boundaries.
	offsets := []Time{
		0, 1, 2, 38, 39, 55, 100,
		nearSlots - 1, nearSlots, nearSlots + 1,
		wheelSpan - 1, wheelSpan, wheelSpan + 1,
		wheelSpan * 3,
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var ref []*refEvent
		var got []int
		var handles []Handle
		scheduleAt := func(at Time) int {
			re := &refEvent{when: at, seq: len(ref)}
			ref = append(ref, re)
			i := re.seq
			handles = append(handles, k.Schedule(re.when, func() { got = append(got, i) }))
			return i
		}
		schedule := func(now Time) {
			off := offsets[rng.Intn(len(offsets))]
			if rng.Intn(2) == 0 {
				off = Time(rng.Intn(1000))
			}
			scheduleAt(now + off)
		}
		for i := 0; i < 40; i++ {
			schedule(0)
		}
		// Random cancellations before the run starts.
		for i := 0; i < 10; i++ {
			j := rng.Intn(len(ref))
			k.Cancel(handles[j])
			ref[j].cancelled = true
		}
		// More work scheduled from inside the run, at random points.
		for i := 0; i < 10; i++ {
			at := Time(rng.Intn(2 * wheelSpan))
			victim := -1
			stop := rng.Intn(3) == 0
			k.Schedule(at, func() {
				schedule(k.Now())
				if victim >= 0 {
					// The victim is due in this cycle after this event:
					// it is in the running batch and must still be
					// pending until it fires.
					if !handles[victim].Pending() && !ref[victim].cancelled {
						t.Fatalf("seed %d: batched event %d not pending before it fired", seed, victim)
					}
					k.Cancel(handles[victim])
					ref[victim].cancelled = true
				}
				// Occasionally cancel a still-pending earlier event.
				if j := rng.Intn(len(handles)); handles[j].Pending() {
					k.Cancel(handles[j])
					ref[j].cancelled = true
				}
				if stop {
					k.Stop()
				}
			})
			if rng.Intn(2) == 0 {
				victim = scheduleAt(at)
			}
		}
		for k.Pending() > 0 {
			k.RunAll()
		}

		want := refOrder(ref)
		if len(got) != len(want) {
			t.Fatalf("seed %d: executed %d events, reference says %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: order diverges at %d: got %v..., want %v...",
					seed, i, got[max(0, i-2):min(len(got), i+3)], want[max(0, i-2):min(len(want), i+3)])
			}
		}
		if k.Pending() != 0 {
			t.Fatalf("seed %d: %d events still pending after RunAll", seed, k.Pending())
		}
	}
}

// FuzzWheelVsReference is the fuzzing entry for the same cross-check: the
// fuzz input is interpreted as an opcode stream. A byte below 200
// schedules an event; 200–227 cancels an earlier event before the run;
// 228 and up schedules a sweeper in an earlier event's cycle, which
// cancels the rest of that cycle's batch when it runs and, for an odd
// byte, stops the run there so the batch's remainder is requeued.
func FuzzWheelVsReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 200, 255, 3, 9})
	f.Add([]byte{255, 255, 255, 0, 0, 128, 64, 32})
	f.Add([]byte{5, 5, 230, 5, 5, 9})
	f.Add([]byte{7, 229, 7, 7, 201, 7, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		k := NewKernel()
		var ref []*refEvent
		var got []int
		var handles []Handle
		for _, op := range ops {
			if op < 200 || len(handles) == 0 {
				// Schedule: spread the byte across all three regions.
				off := Time(op) * Time(op) * 37 // up to ~1.46M cycles
				re := &refEvent{when: off, seq: len(ref)}
				ref = append(ref, re)
				i := re.seq
				handles = append(handles, k.Schedule(re.when, func() { got = append(got, i) }))
				continue
			}
			j := int(op) % len(handles)
			if op < 228 {
				if handles[j].Pending() {
					k.Cancel(handles[j])
					ref[j].cancelled = true
				}
				continue
			}
			re := &refEvent{when: ref[j].when, seq: len(ref), sweeper: true}
			ref = append(ref, re)
			i, stop := re.seq, op%2 == 1
			handles = append(handles, k.Schedule(re.when, func() {
				got = append(got, i)
				for _, h := range handles {
					if h.Pending() && h.When() == k.Now() {
						k.Cancel(h)
					}
				}
				if stop {
					k.Stop()
				}
			}))
		}
		for k.Pending() > 0 {
			k.RunAll()
		}
		want := refOrder(ref)
		if len(got) != len(want) {
			t.Fatalf("executed %d events, reference says %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order diverges at %d: got %d, want %d", i, got[i], want[i])
			}
		}
	})
}
