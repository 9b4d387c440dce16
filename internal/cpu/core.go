// Package cpu models the timing cores that drive the coherence engine.
//
// Substitution note (DESIGN.md Section 4): the paper simulates out-of-order
// 6 GHz cores in SESC. The evaluation's metrics are driven by read-miss
// latency and snoop counts, so this model keeps exactly the behaviour that
// matters: one instruction per cycle of compute between references,
// blocking loads, and stores retired through a finite write buffer that
// only stalls the core when full.
package cpu

import (
	"flexsnoop/internal/cache"
	"flexsnoop/internal/protocol"
	"flexsnoop/internal/sim"
	"flexsnoop/internal/workload"
)

// Memory is the coherence engine interface a core drives.
type Memory interface {
	Access(node, core int, kind protocol.AccessKind, addr cache.LineAddr, done func())
}

// Core executes one reference stream.
type Core struct {
	kern *sim.Kernel
	mem  Memory
	node int
	core int
	src  workload.Source

	wbCap  int
	wbUsed int
	// stalled holds a store waiting for a write-buffer slot.
	stalled    workload.Op
	hasStalled bool
	draining   bool
	finished   bool
	onFinish   func()

	// Memory-level parallelism: with loadCap > 1 the core keeps issuing
	// past load misses until loadCap loads are outstanding (an
	// out-of-order window approximation); loadCap == 1 models an
	// in-order core with blocking loads.
	loadCap        int
	loadsOut       int
	stalledLoad    workload.Op
	hasStalledLoad bool
	ldStallFrom    sim.Time

	// pendingOp carries the operation between step and issue; reusing
	// one slot (plus the per-core callbacks below) keeps the per-op hot
	// path allocation-free.
	pendingOp workload.Op
	// blockStart/blockCompute carry the in-flight blocking load's issue
	// cycle and compute count (loadCap == 1 permits only one).
	blockStart   sim.Time
	blockCompute uint32

	// Per-core reusable callbacks (allocated once in NewMLP).
	stepFn      func()
	issueFn     func()
	loadDoneFn  func()
	blockDoneFn func()
	storeDoneFn func()

	// Stats.
	Instructions uint64
	Loads        uint64
	Stores       uint64
	LoadStall    uint64 // cycles blocked on loads
	WBStall      uint64 // cycles blocked on a full write buffer
	FinishedAt   sim.Time

	wbStallFrom sim.Time
}

// NewMLP builds a core with up to maxOutstandingLoads loads in flight
// (1 gives blocking loads). onFinish fires once when the stream ends and
// the write buffer drains; it may be nil.
func NewMLP(kern *sim.Kernel, mem Memory, node, core, writeBufferEntries, maxOutstandingLoads int, src workload.Source, onFinish func()) *Core {
	if writeBufferEntries < 1 {
		panic("cpu: write buffer needs at least one entry")
	}
	if maxOutstandingLoads < 1 {
		panic("cpu: need at least one outstanding load")
	}
	c := &Core{
		kern: kern, mem: mem, node: node, core: core,
		wbCap: writeBufferEntries, loadCap: maxOutstandingLoads,
		src: src, onFinish: onFinish,
	}
	c.stepFn = c.step
	c.issueFn = func() { c.issue(c.pendingOp) }
	c.loadDoneFn = func() {
		c.loadsOut--
		c.loadRetired()
	}
	c.blockDoneFn = func() {
		c.LoadStall += uint64(c.kern.Now() - c.blockStart)
		c.Instructions += uint64(c.blockCompute) + 1
		c.step()
	}
	c.storeDoneFn = func() {
		c.wbUsed--
		c.storeRetired()
	}
	return c
}

// Start schedules the core's first instruction at the current cycle.
func (c *Core) Start() {
	c.kern.After(0, c.stepFn)
}

// Finished reports whether the core retired its whole stream.
func (c *Core) Finished() bool { return c.finished }

// step fetches and executes the next operation.
func (c *Core) step() {
	op, ok := c.src.Next()
	if !ok {
		c.drain()
		return
	}
	// At most one operation is between fetch and issue at a time, so the
	// pendingOp slot plus the prebuilt issueFn replace a per-op closure.
	c.pendingOp = op
	if op.Compute > 0 {
		c.kern.After(sim.Time(op.Compute), c.issueFn)
	} else {
		c.issue(op)
	}
}

// issue performs the memory reference of an operation.
func (c *Core) issue(op workload.Op) {
	if op.Store {
		c.issueStore(op)
		return
	}
	if c.loadCap > 1 {
		c.issueLoadMLP(op)
		return
	}
	c.Loads++
	c.blockStart = c.kern.Now()
	c.blockCompute = op.Compute
	c.mem.Access(c.node, c.core, protocol.Load, op.Addr, c.blockDoneFn)
}

// issueLoadMLP issues a load without blocking unless the outstanding-load
// window is full.
func (c *Core) issueLoadMLP(op workload.Op) {
	if c.loadsOut >= c.loadCap {
		c.stalledLoad = op
		c.hasStalledLoad = true
		c.ldStallFrom = c.kern.Now()
		return // a load completion resumes us
	}
	c.loadsOut++
	c.Loads++
	c.Instructions += uint64(op.Compute) + 1
	c.mem.Access(c.node, c.core, protocol.Load, op.Addr, c.loadDoneFn)
	c.kern.After(1, c.stepFn)
}

// loadRetired frees a load-window slot, resuming a stalled core or
// completing a drain.
func (c *Core) loadRetired() {
	if c.hasStalledLoad {
		op := c.stalledLoad
		c.hasStalledLoad = false
		c.LoadStall += uint64(c.kern.Now() - c.ldStallFrom)
		c.issueLoadMLP(op)
		return
	}
	if c.draining && c.wbUsed == 0 && c.loadsOut == 0 {
		c.finish()
	}
}

// issueStore retires a store through the write buffer; the core continues
// immediately unless the buffer is full.
func (c *Core) issueStore(op workload.Op) {
	if c.wbUsed >= c.wbCap {
		c.stalled = op
		c.hasStalled = true
		c.wbStallFrom = c.kern.Now()
		return // a store completion resumes us
	}
	c.wbUsed++
	c.Stores++
	c.Instructions += uint64(op.Compute) + 1
	c.mem.Access(c.node, c.core, protocol.Store, op.Addr, c.storeDoneFn)
	// The store is buffered; the core moves on next cycle.
	c.kern.After(1, c.stepFn)
}

// storeRetired frees a write-buffer slot and resumes a stalled core or
// completes a drain.
func (c *Core) storeRetired() {
	if c.hasStalled {
		op := c.stalled
		c.hasStalled = false
		c.WBStall += uint64(c.kern.Now() - c.wbStallFrom)
		c.issueStore(op)
		return
	}
	if c.draining && c.wbUsed == 0 && c.loadsOut == 0 {
		c.finish()
	}
}

// drain waits for outstanding buffered stores and loads before finishing.
func (c *Core) drain() {
	c.draining = true
	if c.wbUsed == 0 && c.loadsOut == 0 {
		c.finish()
	}
}

func (c *Core) finish() {
	if c.finished {
		return
	}
	c.finished = true
	c.FinishedAt = c.kern.Now()
	if c.onFinish != nil {
		c.onFinish()
	}
}
