package protocol

import (
	"fmt"

	"flexsnoop/internal/cache"
	"flexsnoop/internal/config"
	"flexsnoop/internal/ring"
	"flexsnoop/internal/sim"
)

// This file holds the engine's fault-injection hooks and the hardening
// machinery that makes injected faults survivable:
//
//   - injectFaults consults the fault.Injector from the merge stage of
//     flushTransmits (transmit.go), which walks the cycle's segments in
//     fixed ring-index order, so fault decisions land on the same
//     segments in every run.
//   - Dropped segments squash the requester immediately — the model is a
//     link-level CRC that NACKs the sender — reusing the Section 2.1.4
//     squash-and-retry machinery, so coherence invariants hold exactly as
//     they do for collision squashes.
//   - Every launched transaction arms a response deadline sized from the
//     full ring circuit plus the memory round trip (timeoutDeadline). A
//     transaction whose messages were lost times out, squashes, scavenges
//     its per-node message state, and retransmits with exponential
//     backoff, bounded by the plan's retry limit. Retire cancels the
//     deadlines still pending, so a run ends at its last live event.
//   - Fail/Failure latch the first unrecoverable error (retry exhaustion,
//     a watchdog verdict, or an in-run checker violation) and stop the
//     kernel, so machine.Run can report it instead of hanging.
//
// Every hook guards on e.inj (or a nil map), so a fault-free run executes
// the exact same event sequence as a build without this file.

// FaultsEnabled reports whether this engine injects faults.
func (e *Engine) FaultsEnabled() bool { return e.inj != nil }

// TimeoutDeadline returns the first-attempt snoop-response deadline.
func (e *Engine) TimeoutDeadline() sim.Time { return e.deadlineCycles }

// timeoutDeadline sizes the per-transaction response deadline from the
// machine: one full ring circuit — every hop paying link latency, link
// occupancy, a predictor access, bus arbitration and the CMP snoop — plus
// the worst-case memory round trip, with a 4x contention margin. See
// DESIGN.md §8 for the derivation.
func timeoutDeadline(m config.MachineConfig, pred config.PredictorConfig) sim.Time {
	perHop := m.RingLinkCycles + ringLinkOccupancyCycles + m.CMPSnoopCycles +
		m.BusOccupancyCycles + pred.AccessCycles
	circuit := m.NumCMPs * perHop
	memRT := m.MemRemoteRTNoPrefetchCycle + m.DRAMAccessCycles + m.DRAMOccupancyCycles
	return sim.Time(4 * (circuit + memRT))
}

// Fail latches the run's first unrecoverable error and stops the kernel.
func (e *Engine) Fail(err error) {
	if e.failErr != nil {
		return
	}
	e.failErr = err
	e.kern.Stop()
}

// Failure returns the latched unrecoverable error, if any.
func (e *Engine) Failure() error { return e.failErr }

// Completions reports genuinely completed accesses (watchdog progress
// signal). Every retire is either a completed access or a squash/timeout
// retry handoff (retryAfter retires the old attempt before reissuing), so
// subtracting the retry count leaves real completions: a machine spinning
// through squash-retry cycles shows flat Completions and advancing
// RetryChurn, which is exactly the livelock signature.
func (e *Engine) Completions() uint64 { return e.retires - e.stats.Retries }

// Retires reports how many transactions have retired: completed accesses
// and retry handoffs alike. The checker's retire cadence counts it.
func (e *Engine) Retires() uint64 { return e.retires }

// RetryChurn reports squash/retry/timeout activity: advancing churn with
// no completions is the watchdog's livelock signature.
func (e *Engine) RetryChurn() uint64 {
	return e.stats.Squashes + e.stats.Retries + e.stats.SnoopTimeouts
}

// QueuedTxns reports accesses waiting for an MSHR slot across all nodes.
func (e *Engine) QueuedTxns() int {
	n := 0
	for _, nd := range e.nodes {
		n += len(nd.issueQueue)
	}
	return n
}

// injectFaults applies the fault plan to one arbitrated segment during
// the transmit merge stage. It returns true when the segment was dropped
// (the caller skips delivery); otherwise it may stretch in.arrive or
// schedule a duplicate delivery.
func (e *Engine) injectFaults(ri int, r *ring.Ring, in *txIntent) (dropped bool) {
	act := e.inj.Inspect(uint64(in.start), uint64(in.arrive), ri, in.from, r.Next(in.from))
	if act.Drop {
		e.stats.FaultDrops++
		if t, ok := e.byID.Get(uint64(in.m.Txn)); ok && !in.m.Dup {
			// The link-level CRC detects the loss and NACKs the
			// requester, which squashes and retries (Section 2.1.4
			// machinery). The observed loss also arms a short grace
			// deadline — one ring circuit, not the full blind deadline —
			// so recovery from a detected drop is fast; the per-attempt
			// deadline stays as the backstop for losses nothing observed.
			e.squashLocal(t)
			e.armDeadlineIn(t, e.deadlineCycles/4)
		}
		e.msgPool.Put(in.m)
		in.m = nil
		return true
	}
	if act.Delay > 0 {
		e.stats.FaultDelays++
		in.arrive += sim.Time(act.Delay)
	}
	if act.Stall > 0 {
		e.stats.FaultStalls++
		in.arrive += sim.Time(act.Stall)
	}
	// Per-link FIFO: a segment may arrive late, but never before one that
	// departed ahead of it on the same link. Delays and stalls therefore
	// also push back the traffic behind them (head-of-line blocking),
	// which is what a congested or retrying physical link does.
	if f := e.linkFloor[ri][in.from]; in.arrive < f {
		in.arrive = f
	}
	e.linkFloor[ri][in.from] = in.arrive
	if act.Dup && !in.m.Dup {
		e.stats.FaultDups++
		dup := e.msgPool.CloneFrom(in.m)
		dup.Dup = true
		c := e.newCall()
		c.e, c.ringIdx, c.node, c.m = e, ri, r.Next(in.from), dup
		e.kern.ScheduleArg(in.arrive+ringLinkOccupancyCycles, deliverCall, c)
	}
	return false
}

// armDeadline schedules the transaction's response deadline. Only called
// on fault runs. Per-attempt deadlines widen with the retry count so
// heavy fault windows do not starve their own recovery.
func (e *Engine) armDeadline(t *txn) {
	d := e.deadlineCycles
	if shift := t.timeoutRetries; shift > 0 {
		if shift > 6 {
			shift = 6
		}
		d <<= uint(shift)
	}
	e.armDeadlineIn(t, d)
}

// armDeadlineIn schedules a deadline with an explicit width and links it
// into the transaction's deadline list. A transaction may hold several
// (the drop grace deadline rides beside the per-attempt one); retire
// cancels whichever are still pending. Transaction IDs are never reused,
// so a deadline left pending after retire could only fire as a byID
// miss: cancelling it changes no simulated state, and the run ends at
// its last live event instead of ticking through stale timers.
func (e *Engine) armDeadlineIn(t *txn, d sim.Time) {
	if e.inj == nil {
		return
	}
	c := e.newCall()
	c.e, c.t = e, t
	c.next = t.deadlines
	t.deadlines = c
	c.h = e.kern.AfterArg(d, deadlineCall, c)
}

// deadlineCall fires a transaction's response deadline. Its transaction
// is live: retire cancels every deadline still pending.
func deadlineCall(a any) {
	c := a.(*callCtx)
	e, t := c.e, c.t
	for p := &t.deadlines; *p != nil; p = &(*p).next {
		if *p == c {
			*p = c.next
			break
		}
	}
	c.release()
	e.onTxnDeadline(t)
}

// cancelDeadlines cancels a retiring transaction's pending deadlines and
// returns their contexts to the pool.
func (e *Engine) cancelDeadlines(t *txn) {
	for c := t.deadlines; c != nil; {
		next := c.next
		e.kern.Cancel(c.h)
		c.release()
		c = next
	}
	t.deadlines = nil
}

// onTxnDeadline handles an expired response deadline: classify what the
// transaction is still waiting for, and either keep waiting (paths that
// are never faulted), release a completed access, or squash, scavenge and
// retransmit with exponential backoff.
func (e *Engine) onTxnDeadline(t *txn) {
	if t.memPhase {
		// The memory path is not faulted; its callback always arrives.
		e.armDeadline(t)
		return
	}
	if t.found && !t.dataArrived {
		// Claimed data is still crossing the torus (also unfaulted):
		// retiring now would lose the line's only copy. Squash so the
		// arrival drains into writeback-and-retry, and keep watching.
		e.squashLocal(t)
		e.armDeadline(t)
		return
	}
	e.stats.SnoopTimeouts++
	if e.tel != nil {
		e.tel.TxnEvent(e.now(), uint64(t.id), "timeout", t.node)
	}
	if t.installed {
		// The access itself completed — only the trailing reply was
		// lost. Nothing to retransmit; release the MSHR slot.
		e.retire(t)
		return
	}
	if t.timeoutRetries >= e.maxTimeoutRetries {
		// Collision squashes retry without bound (livelock-free by age);
		// only timeout-driven retransmits count against the budget — a
		// line that keeps timing out is genuinely unreachable.
		e.Fail(fmt.Errorf("protocol: txn %d (%v %#x, node %d core %d) unrecoverable after %d retransmits at cycle %d",
			t.id, t.kind, t.addr, t.node, t.core, t.timeoutRetries, e.now()))
		return
	}
	e.squashLocal(t)
	e.scavengeTxn(t.id)
	if t.dataArrived && t.dataDirty {
		// Claimed dirty data would be lost by the retry: reflect it to
		// home memory first (mirrors finishSquashed).
		e.nodes[e.homeOf(t.addr)].mem.WriteBack(t.addr, t.dataVersion)
		e.stats.Writebacks++
	}
	// Cap the backoff well below the watchdog window: with the cap at 6
	// (64-cycle default backoff tops out at 4096) an unlucky line still
	// fits tens of attempts into one window, so a recoverable fault plan
	// cannot masquerade as a livelock just by backing off too far.
	t.timeoutRetries++
	shift := t.timeoutRetries
	if shift > 6 {
		shift = 6
	}
	e.retryAfter(t, sim.Time(e.cfg.RetryBackoffCycles)<<uint(shift))
}

// scavengeTxn reclaims per-node message bookkeeping for one transaction.
// A state whose snoop operation is still pending must survive — the
// scheduled snoopCall holds references into it — but any state past its
// snoop (or one that never snoops) can be dropped and its parked
// messages recycled. Stragglers that later reach such a node pass
// through statelessly and drain at the requester as byID misses.
func (e *Engine) scavengeTxn(id ring.TxnID) {
	for _, n := range e.nodes {
		st, ok := n.ringStates.Get(uint64(id))
		if !ok {
			continue
		}
		if (st.mode == modeFTS || st.mode == modeSTF) && !st.outcomeReady {
			continue // snoopCall still references this record
		}
		if st.mode == modeBlocked {
			continue // its message is parked in another txn's blocked queue
		}
		e.msgPool.Put(st.heldMsg)
		e.msgPool.Put(st.replyHalf)
		e.msgPool.Put(st.pendingReply)
		st.heldMsg, st.replyHalf, st.pendingReply = nil, nil, nil
		n.dropState(id)
		e.stats.ScavengedStates++
	}
}

// ScavengeOrphanStates reclaims message bookkeeping whose transaction no
// longer exists — stragglers re-snooped after a timeout retired their
// transaction. Transaction IDs are never reused, so an orphan can never
// be claimed again. machine.Run calls this after the event queue drains
// on fault runs (nothing is pending then, so every orphan is
// reclaimable); the mid-run population is bounded by the live window.
func (e *Engine) ScavengeOrphanStates() int {
	before := e.stats.ScavengedStates
	var orphans []ring.TxnID
	for _, n := range e.nodes {
		orphans = orphans[:0]
		n.ringStates.ForEach(func(id uint64, _ *ringState) {
			if !e.byID.Has(id) {
				orphans = append(orphans, ring.TxnID(id))
			}
		})
		for _, id := range orphans {
			st, _ := n.ringStates.Get(uint64(id))
			if (st.mode == modeFTS || st.mode == modeSTF) && !st.outcomeReady {
				continue
			}
			e.msgPool.Put(st.heldMsg)
			e.msgPool.Put(st.replyHalf)
			e.msgPool.Put(st.pendingReply)
			st.heldMsg, st.replyHalf, st.pendingReply = nil, nil, nil
			n.dropState(id)
			e.stats.ScavengedStates++
		}
	}
	return int(e.stats.ScavengedStates - before)
}

// DegradeLiveLines switches every line with a live or queued transaction
// to forced Eager forwarding (the watchdog's graceful-degradation
// action): requests for those lines snoop at every node with no
// predictor and no filtering, removing the filter layer from the
// suspected-livelocked lines while the rest of the machine keeps its
// algorithm. Returns how many lines were newly degraded.
func (e *Engine) DegradeLiveLines() int {
	added := 0
	mark := func(addr cache.LineAddr) {
		if e.lines.setFlag(addr, lineEager) {
			added++
		}
	}
	e.byID.ForEach(func(_ uint64, t *txn) { mark(t.addr) })
	if e.retryLines != nil {
		e.retryLines.ForEach(func(addr uint64, _ int32) { mark(cache.LineAddr(addr)) })
	}
	for _, n := range e.nodes {
		for _, t := range n.issueQueue {
			mark(t.addr)
		}
	}
	e.eagerCount += added
	e.stats.DegradedLines += uint64(added)
	return added
}

// forcedEager reports whether the watchdog degraded this line to Eager
// forwarding. The count guard keeps fault-free runs branch-cheap.
func (e *Engine) forcedEager(addr cache.LineAddr) bool {
	return e.eagerCount > 0 && e.lines.hasFlag(addr, lineEager)
}

// CorruptLineState forcibly sets a cached line's coherence state without
// going through the protocol. Checker negative tests only: it creates
// exactly the inconsistencies the invariant checker must detect.
func (e *Engine) CorruptLineState(node, core int, addr cache.LineAddr, st cache.State) {
	e.nodes[node].l2[core].SetState(addr, st)
}

// CorruptSupplierIndex forcibly adds or removes a gateway supplier-index
// entry (checker negative tests for the index cross-validation rules).
func (e *Engine) CorruptSupplierIndex(node int, addr cache.LineAddr, core int, present bool) {
	if present {
		e.nodes[node].supplierIdx.Put(uint64(addr), int32(core))
	} else {
		e.nodes[node].supplierIdx.Delete(uint64(addr))
	}
}
