package protocol

import (
	"fmt"

	"flexsnoop/internal/cache"
	"flexsnoop/internal/ring"
	"flexsnoop/internal/sim"
)

// Access performs one data reference from a core. done fires when the
// reference is performed: data bound for loads, write globally performed
// for stores. done may be nil.
func (e *Engine) Access(nodeID, coreID int, kind AccessKind, addr cache.LineAddr, done func()) {
	if nodeID < 0 || nodeID >= len(e.nodes) {
		panic(fmt.Sprintf("protocol: node %d out of range", nodeID))
	}
	if coreID < 0 || coreID >= e.cfg.CoresPerCMP {
		panic(fmt.Sprintf("protocol: core %d out of range", coreID))
	}
	if kind == Load {
		e.stats.Loads++
	} else {
		e.stats.Stores++
	}
	rk := ring.ReadSnoop
	if kind == Store {
		rk = ring.WriteSnoop
	}
	e.access(nodeID, coreID, rk, addr, e.now(), done, nil, 0, 0)
}

// access is the full reference path; it is re-entered by retries and
// waiters (which carry their original age).
func (e *Engine) access(nodeID, coreID int, kind ring.Kind, addr cache.LineAddr, age sim.Time, done func(), waiters []*txn, retries, timeoutRetries int) {
	n := e.nodes[nodeID]
	if kind == ring.ReadSnoop {
		// L1 filter: loads complete from L1.
		if l := n.l1[coreID].Access(addr); l != nil {
			e.observe(nodeID, coreID, false, addr, l.Version)
			e.completeAfter(sim.Time(e.cfg.L1.RoundTripCycles), done, waiters)
			return
		}
	} else {
		n.l1[coreID].Access(addr) // stats only; stores always check L2 state
	}

	l2RT := sim.Time(e.cfg.L2.RoundTripCycles)
	line := n.l2[coreID].Access(addr)

	if kind == ring.ReadSnoop {
		if line != nil {
			e.observe(nodeID, coreID, false, addr, line.Version)
			n.l1[coreID].Insert(addr, cache.Shared, line.Version)
			e.completeAfter(l2RT, done, waiters)
			return
		}
		// Miss in own L2: snoop the local CMP before going to the ring
		// (Section 2.2).
		e.kern.AfterArg(l2RT, localPathCall, e.pathCtxFor(nodeID, coreID, ring.ReadSnoop, addr, age, done, waiters, retries, timeoutRetries))
		return
	}

	// Store path.
	if line != nil && (line.State == cache.Exclusive || line.State == cache.Dirty) {
		// Silent upgrade: the only copy in the machine.
		e.performWrite(nodeID, coreID, addr)
		e.completeAfter(l2RT, done, waiters)
		return
	}
	e.kern.AfterArg(l2RT, localPathCall, e.pathCtxFor(nodeID, coreID, ring.WriteSnoop, addr, age, done, waiters, retries, timeoutRetries))
}

// pathCtxFor fills a pooled access-path context.
func (e *Engine) pathCtxFor(nodeID, coreID int, kind ring.Kind, addr cache.LineAddr, age sim.Time, done func(), waiters []*txn, retries, timeoutRetries int) *pathCtx {
	p := e.newPath()
	p.e, p.node, p.core, p.kind = e, nodeID, coreID, kind
	p.addr, p.age, p.done, p.waiters, p.retries = addr, age, done, waiters, retries
	p.timeoutRetries = timeoutRetries
	return p
}

// completeAfter finishes a reference after a fixed latency, waking any
// piggy-backed waiters.
func (e *Engine) completeAfter(delay sim.Time, done func(), waiters []*txn) {
	p := e.newPath()
	p.e, p.done, p.waiters = e, done, waiters
	e.kern.AfterArg(delay, doneCall, p)
}

// localReadBody snoops the CMP-local caches once the intra-CMP bus grants
// (see localPathCall) and falls back to the ring.
func (e *Engine) localReadBody(nodeID, coreID int, addr cache.LineAddr, age sim.Time, done func(), waiters []*txn, retries, timeoutRetries int) {
	n := e.nodes[nodeID]
	// Re-check own L2: a waiter's earlier fill may have landed.
	if l := n.l2[coreID].Access(addr); l != nil {
		e.observe(nodeID, coreID, false, addr, l.Version)
		n.l1[coreID].Insert(addr, cache.Shared, l.Version)
		if done != nil {
			done()
		}
		for _, w := range waiters {
			e.restart(w)
		}
		return
	}
	if sup, ok := e.localSupplier(nodeID, coreID, addr); ok {
		e.supplyLocal(nodeID, sup, coreID, addr)
		e.stats.LocalSupplies++
		if done != nil {
			done()
		}
		for _, w := range waiters {
			e.restart(w)
		}
		return
	}
	t := e.newTxn()
	t.kind, t.addr, t.node, t.core = ring.ReadSnoop, addr, nodeID, coreID
	t.age, t.needData, t.done, t.waiters, t.retries = age, true, done, waiters, retries
	t.timeoutRetries = timeoutRetries
	e.issueTxn(t)
}

// localWriteBody resolves store misses and upgrades once the intra-CMP
// bus grants (see localPathCall).
func (e *Engine) localWriteBody(nodeID, coreID int, addr cache.LineAddr, age sim.Time, done func(), waiters []*txn, retries, timeoutRetries int) {
	n := e.nodes[nodeID]
	// Re-check own L2 after the bus wait.
	if l := n.l2[coreID].Lookup(addr); l != nil && (l.State == cache.Exclusive || l.State == cache.Dirty) {
		e.performWrite(nodeID, coreID, addr)
		if done != nil {
			done()
		}
		for _, w := range waiters {
			e.restart(w)
		}
		return
	}
	// Local ownership transfer: another core in this CMP holds the
	// machine's only copy (E or D) — no ring transaction needed.
	if owner, ok := n.supplierIdx.Get(uint64(addr)); ok && int(owner) != coreID {
		st := n.l2[owner].Lookup(addr)
		if st != nil && (st.State == cache.Exclusive || st.State == cache.Dirty) {
			e.invalidateCoreLine(nodeID, int(owner), addr)
			v := e.nextVersion(addr)
			e.observe(nodeID, coreID, true, addr, v)
			e.installLine(nodeID, coreID, addr, cache.Dirty, v)
			if done != nil {
				done()
			}
			for _, w := range waiters {
				e.restart(w)
			}
			return
		}
	}
	// Ring write: upgrade when any CMP-local copy exists, else miss.
	hasCopy := false
	for c := range n.l2 {
		if n.l2[c].Contains(addr) {
			hasCopy = true
			break
		}
	}
	t := e.newTxn()
	t.kind, t.addr, t.node, t.core = ring.WriteSnoop, addr, nodeID, coreID
	t.age, t.needData, t.upgrade = age, !hasCopy, hasCopy
	t.done, t.waiters, t.retries = done, waiters, retries
	t.timeoutRetries = timeoutRetries
	e.issueTxn(t)
}

// localSupplier finds a CMP-local cache able to supply a read (S_L or any
// global supplier state).
func (e *Engine) localSupplier(nodeID, exceptCore int, addr cache.LineAddr) (coreID int, ok bool) {
	n := e.nodes[nodeID]
	for c := range n.l2 {
		if c == exceptCore {
			continue
		}
		if l := n.l2[c].Lookup(addr); l != nil && l.State.LocalSupplier() {
			return c, true
		}
	}
	return 0, false
}

// supplyLocal transfers a line between two caches of the same CMP:
// supplier E->S_G and D->T (it keeps its master roles), reader installs S.
func (e *Engine) supplyLocal(nodeID, supCore, dstCore int, addr cache.LineAddr) {
	n := e.nodes[nodeID]
	l := n.l2[supCore].Lookup(addr)
	if l == nil || !l.State.LocalSupplier() {
		panic("protocol: local supply from a non-supplier")
	}
	switch l.State {
	case cache.Exclusive:
		n.l2[supCore].SetState(addr, cache.SharedGlobal)
	case cache.Dirty:
		n.l2[supCore].SetState(addr, cache.Tagged)
	}
	version := l.Version
	e.observe(nodeID, dstCore, false, addr, version)
	e.installLine(nodeID, dstCore, addr, cache.Shared, version)
}

// installLine inserts a line into a core's L2 (and L1), maintaining the
// supplier index, predictor training and eviction side effects.
func (e *Engine) installLine(nodeID, coreID int, addr cache.LineAddr, st cache.State, version uint64) {
	n := e.nodes[nodeID]
	if st.GlobalSupplier() {
		if prev, ok := n.supplierIdx.Get(uint64(addr)); ok && int(prev) != coreID {
			panic(fmt.Sprintf("protocol: node %d would hold two supplier copies of %#x", nodeID, addr))
		}
		n.supplierIdx.Put(uint64(addr), int32(coreID))
		e.trainInsert(n, addr)
		e.lines.clearFlag(addr, lineDowngraded)
	}
	victim, evicted := n.l2[coreID].Insert(addr, st, version)
	if evicted {
		e.handleEviction(nodeID, coreID, victim)
	}
	n.l1[coreID].Insert(addr, cache.Shared, version)
}

// performWrite stamps a new write generation on a line the core already
// owns exclusively (E or D) or has just won an upgrade for.
func (e *Engine) performWrite(nodeID, coreID int, addr cache.LineAddr) {
	n := e.nodes[nodeID]
	line := n.l2[coreID].Lookup(addr)
	if line == nil {
		panic("protocol: performWrite on an absent line")
	}
	wasSupplier := line.State.GlobalSupplier()
	version := e.nextVersion(addr)
	line.State = cache.Dirty
	line.Version = version
	e.observe(nodeID, coreID, true, addr, version)
	// Touch moves the set's lines, so line no longer points at addr's.
	n.l2[coreID].Touch(addr)
	n.l1[coreID].Insert(addr, cache.Shared, version)
	// Invalidate every other CMP-local copy (the ring message does not
	// visit the requester's own CMP).
	for c := range n.l2 {
		if c != coreID && n.l2[c].Contains(addr) {
			e.invalidateCoreLine(nodeID, c, addr)
		}
	}
	if !wasSupplier {
		if prev, ok := n.supplierIdx.Get(uint64(addr)); ok && int(prev) != coreID {
			panic(fmt.Sprintf("protocol: write upgrade with foreign local supplier of %#x", addr))
		}
		n.supplierIdx.Put(uint64(addr), int32(coreID))
		e.trainInsert(n, addr)
		e.lines.clearFlag(addr, lineDowngraded)
	}
	e.nodes[e.homeOf(addr)].mem.ClearShared(addr)
}

// invalidateCoreLine removes one core's copy, maintaining L1 inclusion,
// the supplier index and predictor training.
func (e *Engine) invalidateCoreLine(nodeID, coreID int, addr cache.LineAddr) {
	n := e.nodes[nodeID]
	if _, ok := n.l2[coreID].Invalidate(addr); !ok {
		return
	}
	n.l1[coreID].Invalidate(addr)
	if owner, ok := n.supplierIdx.Get(uint64(addr)); ok && int(owner) == coreID {
		n.supplierIdx.Delete(uint64(addr))
		e.trainRemove(n, addr)
	}
}

// invalidateCMP removes every copy of a line from a node, returning the
// invalidated supplier line (if one was held) and whether any copy
// existed.
func (e *Engine) invalidateCMP(nodeID int, addr cache.LineAddr) (sup cache.Line, hadSupplier, hadAny bool) {
	n := e.nodes[nodeID]
	supCore, wasSup := n.supplierIdx.Get(uint64(addr))
	for c := range n.l2 {
		if l, ok := n.l2[c].Invalidate(addr); ok {
			hadAny = true
			n.l1[c].Invalidate(addr)
			if wasSup && c == int(supCore) {
				sup = l
				hadSupplier = true
			}
		}
	}
	if wasSup {
		n.supplierIdx.Delete(uint64(addr))
		e.trainRemove(n, addr)
	}
	return sup, hadSupplier, hadAny
}

// handleEviction processes an L2 victim: dirty lines write back to the
// home memory; supplier lines leave the predictor set.
func (e *Engine) handleEviction(nodeID, coreID int, victim cache.Line) {
	n := e.nodes[nodeID]
	n.l1[coreID].Invalidate(victim.Addr)
	if owner, ok := n.supplierIdx.Get(uint64(victim.Addr)); ok && int(owner) == coreID {
		n.supplierIdx.Delete(uint64(victim.Addr))
		e.trainRemove(n, victim.Addr)
	}
	if victim.State == cache.SharedGlobal || victim.State == cache.Tagged {
		// Evicting a shared-capable master may leave plain-S copies with
		// no supplier anywhere; remember at the home that Exclusive
		// grants are unsafe until the next write sweeps them.
		e.nodes[e.homeOf(victim.Addr)].mem.MarkShared(victim.Addr)
	}
	if victim.State.DirtyData() {
		e.nodes[e.homeOf(victim.Addr)].mem.WriteBack(victim.Addr, victim.Version)
		e.stats.Writebacks++
	}
}

// trainInsert updates the supplier predictor when a line enters the CMP's
// supplier set, applying Exact-predictor downgrades (Section 4.3.3).
func (e *Engine) trainInsert(n *node, addr cache.LineAddr) {
	if n.pred == nil {
		return
	}
	superset := n.pred.Kind() == predictorSupersetKind
	victim, mustDowngrade := n.pred.Insert(addr)
	e.meter.AddPredictorUpdate(superset)
	if mustDowngrade {
		e.downgradeLine(n, victim)
	}
}

// trainRemove updates the predictor when a line leaves the supplier set.
func (e *Engine) trainRemove(n *node, addr cache.LineAddr) {
	if n.pred == nil {
		return
	}
	n.pred.Remove(addr)
	e.meter.AddPredictorUpdate(n.pred.Kind() == predictorSupersetKind)
}

// downgradeLine demotes a supplier line to S_L because the Exact predictor
// evicted its entry: S_G/E silently, D/T with a write-back (Section 4.3.3).
func (e *Engine) downgradeLine(n *node, addr cache.LineAddr) {
	coreID, ok := n.supplierIdx.Get(uint64(addr))
	if !ok {
		return // already gone (invalidated between predictor ops)
	}
	line := n.l2[coreID].Lookup(addr)
	if line == nil || !line.State.GlobalSupplier() {
		return
	}
	e.stats.Downgrades++
	e.meter.AddDowngradeOp()
	if line.State.DirtyData() {
		e.nodes[e.homeOf(addr)].mem.WriteBack(addr, line.Version)
		e.stats.Writebacks++
		e.stats.DowngradeWritebacks++
		e.meter.AddExtraMemAccess()
	}
	// The downgraded line itself survives as S_L — a sharer no ring snoop
	// can see under exact/superset filtering — and an SG/T master may
	// additionally leave remote plain-S copies masterless. Either way the
	// home must refuse Exclusive grants until the next write sweeps.
	e.nodes[e.homeOf(addr)].mem.MarkShared(addr)
	n.l2[coreID].SetState(addr, cache.DowngradeTransition(line.State))
	n.supplierIdx.Delete(uint64(addr))
	e.lines.setFlag(addr, lineDowngraded)
	// The predictor entry is already evicted; no Remove needed.
}
