// Package sim provides the discrete-event simulation kernel used by the
// flexible-snooping machine model.
//
// The kernel is a single-threaded event scheduler keyed by (cycle,
// sequence number). Events scheduled for the same cycle execute in the
// order they were scheduled, which makes every simulation fully
// deterministic for a fixed configuration and seed.
//
// Pending events live in a hierarchical timing wheel rather than a binary
// heap: a near wheel of 256 one-cycle slots covers the 39-cycle ring-link
// latency band (plus the 55-cycle snoop/bus band) where virtually all
// events land, an overflow wheel of 256 slots × 256 cycles covers
// mid-range timers such as DRAM accesses and retry backoffs, and a small
// sorted spill list holds anything beyond 65,536 cycles. Schedule and the
// per-event dequeue are O(1) in the steady state, replacing the O(log n)
// sift of a heap.
//
// Events are slab-allocated and recycled through a kernel-owned free list:
// steady-state simulation schedules millions of events without growing the
// heap. Because a fired event's storage is reused, Schedule returns a
// Handle (pointer + generation) rather than a raw pointer; cancelling a
// stale handle is a safe no-op.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Time is a point in simulated time, measured in processor cycles.
type Time uint64

// MaxTime is the largest representable simulation time.
const MaxTime = Time(math.MaxUint64)

// eventState tracks where an event's storage is in its lifecycle.
type eventState uint8

const (
	evFree      eventState = iota // on the free list
	evScheduled                   // linked into a wheel slot or the spill
	evBatched                     // extracted into the running cycle's batch
	evDead                        // cancelled; storage reclaimed lazily
)

// Event is a scheduled callback. Its storage is owned by the kernel and
// recycled after the event fires; hold a Handle, not an *Event.
type Event struct {
	when Time
	seq  uint64

	// Exactly one of fn / argFn is set. The argFn+arg form lets hot
	// callers schedule a package-level function with a pooled argument,
	// avoiding a closure allocation per event.
	fn    func()
	argFn func(any)
	arg   any

	next  *Event // intrusive slot/spill chain
	state eventState
	gen   uint32 // bumped on recycle; validates Handles
}

// When returns the cycle at which the event fires.
func (e *Event) When() Time { return e.when }

// Handle identifies one scheduled firing of an event. The zero Handle is
// valid and refers to nothing. A Handle goes stale once its event fires,
// is cancelled, or the kernel recycles the storage; Cancel on a stale
// handle is a no-op.
type Handle struct {
	e   *Event
	gen uint32
}

// Pending reports whether the handle still refers to a scheduled event.
// An event stays pending until it fires, including while it waits in the
// running cycle's batch.
func (h Handle) Pending() bool {
	return h.e != nil && h.e.gen == h.gen && (h.e.state == evScheduled || h.e.state == evBatched)
}

// When returns the firing cycle of a pending handle, or 0 for a stale one.
func (h Handle) When() Time {
	if !h.Pending() {
		return 0
	}
	return h.e.when
}

// Wheel geometry. The near wheel resolves single cycles; each overflow
// slot covers one full near-wheel rotation. Together they span 65,536
// cycles ahead of nearBase; events beyond that go to the sorted spill.
const (
	nearSlotBits = 8
	nearSlots    = 1 << nearSlotBits // 256 slots × 1 cycle
	nearMask     = nearSlots - 1
	overSlots    = 256 // × nearSlots cycles each
	overMask     = overSlots - 1
	wheelSpan    = nearSlots * overSlots
)

// slotList is a FIFO chain of events threaded through Event.next.
type slotList struct {
	head, tail *Event
}

func (l *slotList) append(e *Event) {
	e.next = nil
	if l.tail == nil {
		l.head = e
	} else {
		l.tail.next = e
	}
	l.tail = e
}

func (l *slotList) reset() { l.head, l.tail = nil, nil }

// eventSlabSize is how many events one slab allocation provides. Slabs
// amortize allocator and GC pressure: a draining simulation reaches a
// steady state where every Schedule is served from the free list.
const eventSlabSize = 256

// interruptStride is how many executed events pass between Interrupt
// polls: rare enough to cost nothing, frequent enough that cancellation
// latency stays in the microsecond range.
const interruptStride = 64

// Kernel is a discrete-event simulator.
//
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now Time
	seq uint64

	// Timing wheel. nearBase/overBase are the wheels' window origins:
	// near covers [nearBase, nearBase+256), overflow covers
	// [nearBase+256, overBase+65536), spill everything beyond. Boundary
	// advances cascade the next overflow slot into the near wheel and
	// refill the wheels from the spill, so an event is always reachable
	// from the slot its current when maps to.
	near     [nearSlots]slotList
	nearOcc  [nearSlots / 64]uint64 // bitmap of (possibly dead-only) occupied near slots
	nearCnt  [nearSlots]int32       // live events per near slot
	over     [overSlots]slotList
	overOcc  [overSlots / 64]uint64
	spill    []*Event // sorted by (when, seq); spillHead is the live prefix start
	spillOff int
	nearBase Time
	overBase Time

	// Live-event counts per region (cancelled events are excluded the
	// moment Cancel runs, even though their storage is reclaimed lazily).
	live      int
	nearLive  int
	overLive  int
	spillLive int

	batch      []*Event // per-cycle dispatch scratch
	free       []*Event
	stopped    bool
	intErr     error
	sinceCheck uint64

	// Executed counts events that have run to completion.
	Executed uint64

	// MaxPending is the pending-event high-water mark.
	MaxPending int

	// Probe, when non-nil, observes the kernel after every executed
	// event — the telemetry layer's hook for interval sampling. A nil
	// check per event is the only cost when telemetry is disabled. The
	// probe must not schedule events or otherwise perturb the run.
	Probe func(now Time)

	// Interrupt, when non-nil, is polled between events (every
	// interruptStride executions). A non-nil return makes Run stop
	// before the next event; the error is kept and reported by Err.
	// The poll never perturbs simulated time, so a run that is not
	// interrupted is cycle-identical to one with no Interrupt installed.
	Interrupt func() error

	// EndCycle, when non-nil, runs once per executed cycle during Run,
	// after every event at that cycle has fired — the hook the protocol
	// engine uses to flush per-ring transmit batches. It may schedule
	// events at the current cycle or later; events it adds at the
	// current cycle are drained (and EndCycle re-fires) before the clock
	// advances, so the hook must tolerate back-to-back calls at the same
	// cycle.
	EndCycle func(now Time)
}

// NewKernel returns an empty kernel at cycle zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Err returns the error that interrupted Run, if any.
func (k *Kernel) Err() error { return k.intErr }

// alloc takes an event from the free list, growing it by one slab when
// empty.
func (k *Kernel) alloc() *Event {
	if len(k.free) == 0 {
		slab := make([]Event, eventSlabSize)
		for i := range slab {
			k.free = append(k.free, &slab[i])
		}
	}
	e := k.free[len(k.free)-1]
	k.free = k.free[:len(k.free)-1]
	return e
}

// recycleFired returns a fired event to the free list, bumping its
// generation so stale Handles cannot reach the next occupant.
func (k *Kernel) recycleFired(e *Event) {
	e.fn = nil
	e.argFn = nil
	e.arg = nil
	e.next = nil
	e.state = evFree
	e.gen++
	k.free = append(k.free, e)
}

// recycleDead reclaims a cancelled event's storage. Cancel already bumped
// the generation and dropped the callback references.
func (k *Kernel) recycleDead(e *Event) {
	e.next = nil
	e.state = evFree
	k.free = append(k.free, e)
}

// place links a scheduled event into the region its when maps to. Counts
// for the target region are updated; the caller accounts for the region
// the event left, if any.
func (k *Kernel) place(e *Event) {
	switch {
	case e.when < k.nearBase+nearSlots:
		i := int(e.when) & nearMask
		k.near[i].append(e)
		k.nearOcc[i>>6] |= 1 << (uint(i) & 63)
		k.nearCnt[i]++
		k.nearLive++
	case e.when < k.overBase+wheelSpan:
		i := int(e.when>>nearSlotBits) & overMask
		k.over[i].append(e)
		k.overOcc[i>>6] |= 1 << (uint(i) & 63)
		k.overLive++
	default:
		k.spillInsert(e)
		k.spillLive++
	}
}

// spillInsert adds e to the sorted spill, keeping (when, seq) order.
func (k *Kernel) spillInsert(e *Event) {
	s := k.spill[k.spillOff:]
	i := sort.Search(len(s), func(i int) bool {
		if s[i].when != e.when {
			return s[i].when > e.when
		}
		return s[i].seq > e.seq
	})
	k.spill = append(k.spill, nil)
	s = k.spill[k.spillOff:]
	copy(s[i+1:], s[i:])
	s[i] = e
}

func (k *Kernel) push(e *Event, at Time) Handle {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, k.now))
	}
	e.when = at
	e.seq = k.seq
	k.seq++
	e.state = evScheduled
	k.place(e)
	k.live++
	if k.live > k.MaxPending {
		k.MaxPending = k.live
	}
	return Handle{e: e, gen: e.gen}
}

// Schedule runs fn at the given absolute cycle. Scheduling in the past
// (before Now) panics: it would silently corrupt causality.
func (k *Kernel) Schedule(at Time, fn func()) Handle {
	if fn == nil {
		panic("sim: nil event function")
	}
	e := k.alloc()
	e.fn = fn
	return k.push(e, at)
}

// ScheduleArg runs fn(arg) at the given absolute cycle. When fn is a
// package-level function value and arg is a pooled pointer, the call
// allocates nothing: this is the hot-path alternative to wrapping both in
// a fresh closure per event.
func (k *Kernel) ScheduleArg(at Time, fn func(any), arg any) Handle {
	if fn == nil {
		panic("sim: nil event function")
	}
	e := k.alloc()
	e.argFn = fn
	e.arg = arg
	return k.push(e, at)
}

// After runs fn delay cycles from now.
func (k *Kernel) After(delay Time, fn func()) Handle {
	return k.Schedule(k.now+delay, fn)
}

// AfterArg runs fn(arg) delay cycles from now (see ScheduleArg).
func (k *Kernel) AfterArg(delay Time, fn func(any), arg any) Handle {
	return k.ScheduleArg(k.now+delay, fn, arg)
}

// Cancel prevents a pending event from running. Cancelling a stale handle
// (already fired, already cancelled, or zero) is a no-op. The event's
// storage is reclaimed lazily the next time the kernel walks the slot,
// spill entry or running batch holding it. An event due in the running
// cycle may be cancelled by an earlier event of that cycle: it never
// fires.
func (k *Kernel) Cancel(h Handle) {
	if !h.Pending() {
		return
	}
	e := h.e
	batched := e.state == evBatched
	e.state = evDead
	e.gen++ // stale immediately; the slot walk reclaims storage later
	e.fn = nil
	e.argFn = nil
	e.arg = nil
	k.live--
	if batched {
		return // extractBatch already took it out of its slot's counts
	}
	switch {
	case e.when < k.nearBase+nearSlots:
		k.nearCnt[int(e.when)&nearMask]--
		k.nearLive--
	case e.when < k.overBase+wheelSpan:
		k.overLive--
	default:
		k.spillLive--
	}
}

// Pending reports the number of events waiting to run.
func (k *Kernel) Pending() int { return k.live }

// FreeEvents reports the free-list depth (observability for the slab
// allocator; steady-state simulations stop growing it).
func (k *Kernel) FreeEvents() int { return len(k.free) }

// Stop makes Run return after the current event completes, or, called
// from EndCycle, at the end of the current cycle.
func (k *Kernel) Stop() { k.stopped = true }

// advanceBoundary moves the near window forward one rotation and cascades
// the overflow slot now covering [nearBase, nearBase+256) into the near
// wheel. Boundaries advance one at a time, so every overflow slot is
// cascaded exactly when the near window reaches it.
func (k *Kernel) advanceBoundary() {
	k.nearBase += nearSlots
	if k.nearBase >= k.overBase+wheelSpan {
		k.overBase += wheelSpan
		k.refillSpill()
	}
	i := int(k.nearBase>>nearSlotBits) & overMask
	if k.overOcc[i>>6]&(1<<(uint(i)&63)) == 0 {
		return
	}
	head := k.over[i].head
	k.over[i].reset()
	k.overOcc[i>>6] &^= 1 << (uint(i) & 63)
	for e := head; e != nil; {
		next := e.next
		if e.state == evDead {
			k.recycleDead(e)
		} else {
			k.overLive--
			k.place(e)
		}
		e = next
	}
}

// refillSpill moves every spill event now inside the wheel horizon into
// the wheels. The spill is sorted, so only a prefix moves.
func (k *Kernel) refillSpill() {
	horizon := k.overBase + wheelSpan
	for k.spillOff < len(k.spill) {
		e := k.spill[k.spillOff]
		if e.state != evDead && e.when >= horizon {
			break
		}
		k.spill[k.spillOff] = nil
		k.spillOff++
		if e.state == evDead {
			k.recycleDead(e)
			continue
		}
		k.spillLive--
		k.place(e)
	}
	if k.spillOff == len(k.spill) {
		k.spill = k.spill[:0]
		k.spillOff = 0
	} else if k.spillOff > 64 && k.spillOff > len(k.spill)/2 {
		n := copy(k.spill, k.spill[k.spillOff:])
		for i := n; i < len(k.spill); i++ {
			k.spill[i] = nil
		}
		k.spill = k.spill[:n]
		k.spillOff = 0
	}
}

// jumpToSpill re-bases the wheels at the earliest spill event. Only legal
// when both wheels are empty of live events, so no boundary cascades are
// skipped for wheel-resident work.
func (k *Kernel) jumpToSpill() {
	for k.spillOff < len(k.spill) && k.spill[k.spillOff].state == evDead {
		k.recycleDead(k.spill[k.spillOff])
		k.spill[k.spillOff] = nil
		k.spillOff++
	}
	if k.spillOff >= len(k.spill) {
		return
	}
	t := k.spill[k.spillOff].when
	k.overBase = t &^ Time(wheelSpan-1)
	k.nearBase = t &^ Time(nearMask)
	k.refillSpill()
}

// slotNext returns the earliest live when in near slot i, or false when
// the slot holds no live events (in which case its dead chain is
// reclaimed and the occupancy bit cleared).
func (k *Kernel) slotNext(i int) (Time, bool) {
	best := MaxTime
	found := false
	for e := k.near[i].head; e != nil; e = e.next {
		if e.state == evScheduled && e.when < best {
			best = e.when
			found = true
		}
	}
	if !found {
		for e := k.near[i].head; e != nil; {
			next := e.next
			k.recycleDead(e)
			e = next
		}
		k.near[i].reset()
		k.nearOcc[i>>6] &^= 1 << (uint(i) & 63)
	}
	return best, found
}

// peek returns the time of the earliest live event, advancing wheel
// boundaries (but never the clock) as needed to find it.
func (k *Kernel) peek() (Time, bool) {
	for k.live > 0 {
		if k.nearLive > 0 {
			if k.nearBase > k.now {
				// Abnormal regime: a previous peek advanced the bases past
				// the clock, so the near window [now, nearBase+256) is wider
				// than one rotation and slots may mix cycles. Full scan.
				best := MaxTime
				for i := range k.near {
					if k.nearOcc[i>>6]&(1<<(uint(i)&63)) == 0 {
						continue
					}
					if t, ok := k.slotNext(i); ok && t < best {
						best = t
					}
				}
				if best != MaxTime {
					return best, true
				}
			} else {
				// Normal regime: every slot in [now, nearBase+256) holds a
				// single cycle; the first occupied slot with a live event is
				// the earliest. Bitmap scan with word skips.
				end := k.nearBase + nearSlots
				for c := k.now; c < end; {
					i := int(c) & nearMask
					word := k.nearOcc[i>>6] >> (uint(i) & 63)
					if word == 0 {
						c += Time(64 - (i & 63))
						continue
					}
					if tz := bits.TrailingZeros64(word); tz > 0 {
						c += Time(tz)
						continue
					}
					// The slot's cycle is c; the live counter says whether
					// anything here still fires without walking the chain.
					if k.nearCnt[i] > 0 {
						return c, true
					}
					k.slotNext(i) // dead-only slot: reclaim and clear the bit
					c++
				}
			}
		}
		if k.overLive > 0 {
			k.advanceBoundary()
			continue
		}
		if k.spillLive > 0 {
			k.jumpToSpill()
			continue
		}
		// Live counters said events exist but none were found: impossible
		// unless counters are corrupted.
		panic("sim: live-event accounting out of sync")
	}
	return 0, false
}

// extractBatch unlinks every live event at cycle `now` from its near slot
// into k.batch, ordered by seq, and marks them evBatched. Dead events are
// reclaimed; live events at other cycles (abnormal-regime slot sharing)
// are kept in place.
func (k *Kernel) extractBatch() {
	i := int(k.now) & nearMask
	var keep slotList
	k.batch = k.batch[:0]
	for e := k.near[i].head; e != nil; {
		next := e.next
		switch {
		case e.state == evDead:
			k.recycleDead(e)
		case e.when == k.now:
			e.state = evBatched
			k.batch = append(k.batch, e)
		default:
			keep.append(e)
		}
		e = next
	}
	k.near[i] = keep
	if keep.head == nil {
		k.nearOcc[i>>6] &^= 1 << (uint(i) & 63)
	}
	k.nearCnt[i] -= int32(len(k.batch))
	k.nearLive -= len(k.batch)
	// Cross-level migrations (cascade, spill refill) can interleave
	// lower-seq events behind direct appends; restore FIFO order. The
	// common case is already sorted, so insertion sort is near-free.
	for a := 1; a < len(k.batch); a++ {
		e := k.batch[a]
		b := a
		for b > 0 && k.batch[b-1].seq > e.seq {
			k.batch[b] = k.batch[b-1]
			b--
		}
		k.batch[b] = e
	}
}

// requeueBatch returns unexecuted batch events to their slot after a Stop
// or Interrupt mid-batch, reclaiming the ones cancelled meanwhile.
func (k *Kernel) requeueBatch(from int) {
	for _, e := range k.batch[from:] {
		if e.state == evDead {
			k.recycleDead(e)
			continue
		}
		e.state = evScheduled
		k.place(e)
	}
	k.batch = k.batch[:0]
}

// execBatch extracts and runs one batch of events at the current cycle.
// It reports whether the run should continue (false after Stop or an
// Interrupt error) and whether any event ran.
func (k *Kernel) execBatch() (cont, ran bool) {
	k.extractBatch()
	if len(k.batch) == 0 {
		return true, false
	}
	for bi, e := range k.batch {
		if e.state == evDead {
			// Cancelled by an earlier event of this batch.
			k.recycleDead(e)
			continue
		}
		if k.Interrupt != nil {
			if k.sinceCheck++; k.sinceCheck >= interruptStride {
				k.sinceCheck = 0
				if err := k.Interrupt(); err != nil {
					k.intErr = err
					k.requeueBatch(bi)
					return false, true
				}
			}
		}
		fn, argFn, arg := e.fn, e.argFn, e.arg
		k.live--
		k.recycleFired(e)
		if argFn != nil {
			argFn(arg)
		} else {
			fn()
		}
		k.Executed++
		if k.Probe != nil {
			k.Probe(k.now)
		}
		if k.stopped {
			k.requeueBatch(bi + 1)
			return false, true
		}
	}
	k.batch = k.batch[:0]
	return true, true
}

// hasLiveNow reports whether any live event remains at the current cycle.
func (k *Kernel) hasLiveNow() bool {
	i := int(k.now) & nearMask
	if k.nearBase <= k.now {
		// Normal regime: the slot holds only cycle now, so the live
		// counter answers without a chain walk.
		return k.nearCnt[i] > 0
	}
	for e := k.near[i].head; e != nil; e = e.next {
		if e.state == evScheduled && e.when == k.now {
			return true
		}
	}
	return false
}

// runCycle drains every event at the current cycle (including events they
// schedule at the same cycle), then fires EndCycle. It reports whether
// the run should continue and whether any event executed.
func (k *Kernel) runCycle() (cont, any bool) {
	for {
		cont, ran := k.execBatch()
		any = any || ran
		if !cont {
			return false, any
		}
		if ran && k.hasLiveNow() {
			continue
		}
		if k.EndCycle != nil {
			k.EndCycle(k.now)
			if k.stopped {
				return false, any
			}
			if k.hasLiveNow() {
				continue
			}
		}
		return true, any
	}
}

// Run executes events until the queue drains, Stop is called, the
// simulated clock passes limit, or the Interrupt hook reports an error. It
// returns the time of the last executed event. Each cycle's events run as
// one batch, followed by the EndCycle hook (if installed).
func (k *Kernel) Run(limit Time) Time {
	k.stopped = false
	k.sinceCheck = 0
	for {
		t, ok := k.peek()
		if !ok || t > limit {
			break
		}
		prev := k.now
		k.now = t
		cont, any := k.runCycle()
		if !any {
			// An interrupt fired before the cycle's first event: report
			// the time of the last event that actually executed.
			k.now = prev
		}
		if !cont {
			break
		}
	}
	return k.now
}

// RunAll executes events until the queue drains or Stop is called.
func (k *Kernel) RunAll() Time { return k.Run(MaxTime) }
