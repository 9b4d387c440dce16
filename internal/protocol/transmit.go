package protocol

import (
	"flexsnoop/internal/ring"
	"flexsnoop/internal/sim"
)

// This file implements the engine's cycle-batched transmit stage.
//
// Ring handlers never call ring.Send directly: forwardAt buffers a
// txIntent per segment, and flushTransmits — installed as the kernel's
// EndCycle hook — drains the buffers once every event at the current
// cycle has run. The deferral fixes the order of a cycle's output:
//
//   - Same-cycle event order. Delivery events are scheduled only in the
//     merge stage, which walks the rings in fixed ring-index order and
//     each ring's intents in buffer order, so kernel sequence numbers —
//     the same-cycle tie-break — follow that walk rather than the
//     interleaving of the handlers that produced the segments.
//   - Fault placement. The fault injector draws its sequential decisions
//     in the same walk (see fault.go), so a plan's n-th decision always
//     lands on the same segment.
//
// The flush arbitrates every ring's links before it merges any ring.
// Arbitration touches only its own ring; the merge alone touches state
// shared across rings (the deferred-flush rule; see DESIGN.md §7.2).

// txIntent is one buffered message-segment transmission.
type txIntent struct {
	depart sim.Time
	from   int
	m      *ring.Message
	start  sim.Time // filled by arbitration
	arrive sim.Time
}

// PendingTransmits reports buffered transmit intents not yet flushed.
// Outside an executing cycle it is zero; the machine's governor checks it
// so a mid-cycle "no kernel events" observation is not mistaken for a
// drained simulation.
func (e *Engine) PendingTransmits() int { return e.txTotal }

// flushTransmits arbitrates and schedules every buffered transmit. It is
// the kernel's EndCycle hook.
func (e *Engine) flushTransmits(now sim.Time) {
	if e.txTotal == 0 {
		return
	}
	// Stage 1: per-ring link arbitration.
	for ri, q := range e.txq {
		r := e.rings[ri]
		for i := range q {
			q[i].start, q[i].arrive = r.Arbitrate(q[i].depart, q[i].from, q[i].m)
		}
	}
	// Stage 2: merge in fixed ring-index order.
	for ri := range e.txq {
		r := e.rings[ri]
		q := e.txq[ri]
		for i := range q {
			in := &q[i]
			if e.inj != nil && e.injectFaults(ri, r, in) {
				continue // segment dropped
			}
			if r.OnSend != nil {
				r.OnSend(in.start, in.arrive, in.from, in.m)
			}
			c := e.newCall()
			c.e, c.ringIdx, c.node, c.m = e, ri, r.Next(in.from), in.m
			e.kern.ScheduleArg(in.arrive, deliverCall, c)
			in.m = nil
		}
		e.txq[ri] = q[:0]
	}
	e.txTotal = 0
}
