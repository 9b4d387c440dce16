package protocol

import (
	"flexsnoop/internal/cache"
	"flexsnoop/internal/ring"
	"flexsnoop/internal/sim"
)

// This file holds the engine's free lists. The simulation is
// single-threaded, so plain slices beat sync.Pool: no locking, no
// per-GC flushing, and the steady state allocates nothing.
//
// Ownership discipline (see also ring.Pool): a pooled object is recycled
// by the last party to hold it, exactly once. Events pass pooled call
// contexts through sim.ScheduleArg with package-level functions, which
// avoids the per-event closure allocation; each call function returns its
// context to the pool before running the handler, so a handler that
// schedules further events reuses the same record.

// callCtx is the argument record for ring-side deferred calls: message
// delivery, snoop completion, data transfer, the memory-read callback and
// the response deadline.
type callCtx struct {
	e       *Engine
	ringIdx int
	node    int
	m       *ring.Message
	st      *ringState
	t       *txn
	id      ring.TxnID
	ver     uint64
	dirty   bool
	// A pending response deadline is linked into its transaction's
	// deadline list through next, and h is its kernel event, so retire
	// can cancel it (see armDeadlineIn).
	next *callCtx
	h    sim.Handle
}

func (e *Engine) newCall() *callCtx {
	if n := len(e.ccPool); n > 0 {
		c := e.ccPool[n-1]
		e.ccPool = e.ccPool[:n-1]
		return c
	}
	return &callCtx{}
}

// release zeroes the context's pointers and returns it to the pool.
func (c *callCtx) release() {
	e := c.e
	*c = callCtx{}
	e.ccPool = append(e.ccPool, c)
}

// deliverCall runs e.deliver for a message arriving off a ring link.
func deliverCall(a any) {
	c := a.(*callCtx)
	e, ringIdx, node, m := c.e, c.ringIdx, c.node, c.m
	c.release()
	e.deliver(ringIdx, node, m)
}

// snoopCall runs e.snoopComplete when a node's snoop operation finishes.
func snoopCall(a any) {
	c := a.(*callCtx)
	e, ringIdx, node, m, st := c.e, c.ringIdx, c.node, c.m, c.st
	c.release()
	e.snoopComplete(ringIdx, node, m, st)
}

// dataCall delivers a torus data transfer to the requester.
func dataCall(a any) {
	c := a.(*callCtx)
	e, id, ver, dirty := c.e, c.id, c.ver, c.dirty
	c.release()
	e.deliverData(id, ver, dirty)
}

// memReadCall completes a transaction's memory phase.
func memReadCall(a any) {
	c := a.(*callCtx)
	e, t := c.e, c.t
	c.release()
	e.memReadDone(t)
}

// restartCall re-enters the access path for a woken waiter or a retried
// transaction.
func restartCall(a any) {
	c := a.(*callCtx)
	e, t := c.e, c.t
	c.release()
	e.restart(t)
}

// pathCtx is the argument record for the processor-side access path: the
// L2-miss deferral, the intra-CMP bus grant, and plain completion
// callbacks.
type pathCtx struct {
	e       *Engine
	node    int
	core    int
	kind    ring.Kind
	addr    cache.LineAddr
	age     sim.Time
	done    func()
	waiters []*txn
	retries int
	// timeoutRetries rides along so a timeout-driven retransmit keeps its
	// budget across the re-entered access path (fault runs only).
	timeoutRetries int
}

func (e *Engine) newPath() *pathCtx {
	if n := len(e.pcPool); n > 0 {
		p := e.pcPool[n-1]
		e.pcPool = e.pcPool[:n-1]
		return p
	}
	return &pathCtx{}
}

func (p *pathCtx) release() {
	e := p.e
	*p = pathCtx{}
	e.pcPool = append(e.pcPool, p)
}

// doneCall fires a reference's completion callback and wakes piggy-backed
// waiters (completeAfter's event body).
func doneCall(a any) {
	p := a.(*pathCtx)
	e, done, waiters := p.e, p.done, p.waiters
	p.release()
	if done != nil {
		done()
	}
	for _, w := range waiters {
		e.restart(w)
	}
}

// localPathCall reserves the intra-CMP bus after the L2 round trip and
// re-schedules the same context for the bus grant.
func localPathCall(a any) {
	p := a.(*pathCtx)
	e := p.e
	n := e.nodes[p.node]
	start := n.cmpBus.Reserve(e.now(), sim.Time(e.cfg.BusOccupancyCycles))
	finish := start + sim.Time(e.cfg.IntraCMPBusCycles)
	e.kern.ScheduleArg(finish, localPathGrantCall, p)
}

// localPathGrantCall runs the local snoop body once the bus grants.
func localPathGrantCall(a any) {
	p := a.(*pathCtx)
	e, node, core, kind := p.e, p.node, p.core, p.kind
	addr, age, done, waiters, retries := p.addr, p.age, p.done, p.waiters, p.retries
	timeoutRetries := p.timeoutRetries
	p.release()
	if kind == ring.ReadSnoop {
		e.localReadBody(node, core, addr, age, done, waiters, retries, timeoutRetries)
	} else {
		e.localWriteBody(node, core, addr, age, done, waiters, retries, timeoutRetries)
	}
}

// newTxn takes a transaction record from the free list. Only launched
// transactions return to the pool (at retire); waiter and queued records
// abandoned by a restart are left to the garbage collector.
func (e *Engine) newTxn() *txn {
	if n := len(e.txnPool); n > 0 {
		t := e.txnPool[n-1]
		e.txnPool = e.txnPool[:n-1]
		*t = txn{}
		return t
	}
	return &txn{}
}

// freeTxn recycles a retired transaction. The caller must guarantee no
// live references remain (retire removes the byID/outstanding entries and
// drains waiters and blocked messages first).
func (e *Engine) freeTxn(t *txn) {
	e.txnPool = append(e.txnPool, t)
}

// newRingState takes per-transaction message bookkeeping from the free
// list; dropState returns it.
func (e *Engine) newRingState() *ringState {
	if n := len(e.rsPool); n > 0 {
		st := e.rsPool[n-1]
		e.rsPool = e.rsPool[:n-1]
		*st = ringState{}
		return st
	}
	return &ringState{}
}
