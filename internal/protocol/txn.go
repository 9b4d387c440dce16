package protocol

import (
	"fmt"

	"flexsnoop/internal/cache"
	"flexsnoop/internal/ring"
	"flexsnoop/internal/sim"
)

// txn is one outstanding ring coherence transaction at its requester node.
type txn struct {
	id   ring.TxnID
	kind ring.Kind
	addr cache.LineAddr
	node int
	core int
	// age is the original issue cycle; retries keep it, so the oldest
	// transaction eventually wins every collision (livelock freedom).
	age sim.Time
	// issued is when this attempt started (for latency accounting).
	issued sim.Time

	// needData: read, or write miss. False for upgrades.
	needData bool
	// upgrade: write with a valid local copy.
	upgrade bool

	// Aggregate reply state collected from returning message halves.
	found       bool
	supplier    int
	sharerSeen  bool
	snoopedMask uint64

	requestReturned bool
	replyReturned   bool

	dataArrived bool
	dataVersion uint64
	// dataDirty: ownership transferred with the data (write supply); a
	// squashed transaction must write the data back rather than drop it.
	dataDirty bool

	installed bool
	squashed  bool
	// memPhase: negative reply received, memory read in flight.
	memPhase bool
	retired  bool
	// sharedGrant demotes this read's memory grant to plain Shared (it
	// crossed another in-flight read of the line).
	sharedGrant bool
	// noInstall makes a read deliver its data to the core without caching
	// a copy: the read overlapped an in-flight write, which may already
	// have passed this node and could never invalidate a late install.
	// The one-time use is legal (the read serializes before that write);
	// caching would create a stale copy.
	noInstall bool

	done func()
	// waiters are transactions parked behind this one (same line, same
	// node); each is restarted when this transaction retires. Storing the
	// records directly (rather than restart closures) keeps the wait path
	// allocation-free.
	waiters []*txn

	// blockedMsgs holds colliding ring messages delayed until this
	// write's in-limbo data is installed (see handleCollision).
	blockedMsgs []blockedMsg

	// deadlines lists the response deadlines still pending for this
	// transaction (fault runs only); retire cancels them.
	deadlines *callCtx

	retries int
	// timeoutRetries counts only deadline-driven retransmits (fault
	// runs). Collision squashes stay unbounded — age arbitration makes
	// them livelock-free — but timeout retransmits are budgeted, widen
	// the next attempt's deadline and back off exponentially.
	timeoutRetries int
}

type blockedMsg struct {
	ringIdx int
	m       *ring.Message
}

// older reports whether transaction (age, node) a is older than b in the
// global priority order used for collision resolution.
func older(ageA sim.Time, nodeA int, ageB sim.Time, nodeB int) bool {
	if ageA != ageB {
		return ageA < ageB
	}
	return nodeA < nodeB
}

// issueTxn creates and launches a ring transaction from a node, or queues
// it behind an existing transaction / a free MSHR slot.
func (e *Engine) issueTxn(t *txn) {
	n := e.nodes[t.node]
	if own, _ := n.outstanding.Get(uint64(t.addr)); own != nil {
		// One outstanding transaction per line per node: wait for it.
		own.waiters = append(own.waiters, t)
		return
	}
	if n.activeTxns >= e.cfg.MaxTransactionsPerNode {
		n.issueQueue = append(n.issueQueue, t)
		return
	}
	e.launch(t)
}

// restart re-executes the full access path for a waiter or retried
// transaction: the local cache state may have changed while it waited.
func (e *Engine) restart(t *txn) {
	e.access(t.node, t.core, t.kind, t.addr, t.age, t.done, t.waiters, t.retries, t.timeoutRetries)
}

// launch puts the transaction on the ring.
func (e *Engine) launch(t *txn) {
	n := e.nodes[t.node]
	e.txnSeq++
	t.id = e.txnSeq
	t.issued = e.now()
	e.byID.Put(uint64(t.id), t)
	n.outstanding.Put(uint64(t.addr), t)
	n.activeTxns++
	if e.tel != nil {
		e.tel.TxnIssue(e.now(), uint64(t.id), t.kind.String(), uint64(t.addr), t.node, t.core, t.retries)
	}

	if t.kind == ring.ReadSnoop {
		e.stats.ReadRequests++
		e.recordPerfectPrediction(t)
		// A write already in flight for the line may have passed this
		// node: any data this read obtains is usable once but must not
		// be cached (see noInstall). The line table's liveWrites column
		// indexes exactly the non-retired write transactions in byID.
		if s, ok := e.lines.find(t.addr); ok && e.lines.liveWrites[s] > 0 {
			t.noInstall = true
		}
	} else {
		e.stats.WriteRequests++
		e.lines.liveWrites[e.lines.slot(t.addr)]++
	}

	m := e.msgPool.Get()
	m.Txn, m.Kind, m.Addr, m.Requester, m.Age = t.id, t.kind, t.addr, t.node, t.age
	// The request and reply travel together on the first segment
	// (Figure 3(b)).
	m.HasRequest, m.HasReply = true, true
	m.NeedsData = t.kind == ring.WriteSnoop && t.needData
	e.forward(ringFor(t.addr, e.cfg.NumRings), t.node, m)
	e.armDeadline(t)
}

// recordPerfectPrediction models Figure 11's perfect predictor: checked at
// every node, in ring order, until the request finds the supplier.
func (e *Engine) recordPerfectPrediction(t *txn) {
	nodeID := t.node
	for i := 0; i < e.cfg.NumCMPs-1; i++ {
		nodeID = (nodeID + 1) % e.cfg.NumCMPs
		if e.nodes[nodeID].supplierIdx.Has(uint64(t.addr)) {
			e.stats.PerfectAccuracy.Classify(true, true)
			return
		}
		e.stats.PerfectAccuracy.Classify(false, false)
	}
}

// ringFor maps an address to its embedded ring (Section 2.2).
func ringFor(addr cache.LineAddr, nrings int) int { return ring.Select(addr, nrings) }

// squashLocal marks the node's own outstanding transaction squashed after
// losing a collision. Its in-flight messages keep circulating; the retry
// happens when they drain back.
func (e *Engine) squashLocal(t *txn) {
	if t.squashed {
		return
	}
	t.squashed = true
	e.stats.Squashes++
	if e.tel != nil {
		e.tel.TxnEvent(e.now(), uint64(t.id), "squash", t.node)
	}
}

// consumeReturn processes a message that has circled back to its
// requester.
func (e *Engine) consumeReturn(ringIdx int, m *ring.Message) {
	// The requester is the message's last stop either way: recycle it once
	// its contents are folded into the transaction.
	defer e.msgPool.Put(m)
	t, ok := e.byID.Get(uint64(m.Txn))
	if !ok {
		return // straggler for an already-retired transaction
	}
	if m.HasReply {
		t.replyReturned = true
		t.found = t.found || m.Found
		if m.Found {
			t.supplier = m.Supplier
		}
		t.sharerSeen = t.sharerSeen || m.SharerSeen
		t.snoopedMask |= m.SnoopedMask
		t.squashed = t.squashed || m.Squashed
		t.sharedGrant = t.sharedGrant || m.SharedGrant
	}
	if m.HasRequest {
		t.requestReturned = true
		// A split request-half carries collision verdicts picked up after
		// the split point; it precedes the reply around the ring.
		t.sharedGrant = t.sharedGrant || m.SharedGrant
	}
	if t.replyReturned {
		e.onReplyComplete(t)
	}
}

// onReplyComplete advances a transaction whose ring circuit finished.
func (e *Engine) onReplyComplete(t *txn) {
	if t.retired || t.memPhase {
		return
	}
	if t.squashed {
		e.finishSquashed(t)
		return
	}
	if t.kind == ring.ReadSnoop {
		if t.found {
			// Data arrives (or arrived) via the torus; install happens
			// at data arrival. Retire once both are in.
			e.maybeRetire(t)
			return
		}
		e.startMemoryRead(t)
		return
	}
	// Write transaction: every node has invalidated. A reply returning
	// without every node's snoop is a protocol bug, not a tolerable
	// outcome: it would let stale copies survive the write.
	if !msgAllSnooped(t.snoopedMask, t.node, e.cfg.NumCMPs) {
		if e.inj != nil {
			// Under injected faults a delayed reply half can overtake its
			// own request around the ring and return with a partial sweep.
			// The sweep is unusable: squash and retransmit.
			e.squashLocal(t)
			e.finishSquashed(t)
			return
		}
		panic(fmt.Sprintf("protocol: write txn %d completed with partial invalidation mask %b", t.id, t.snoopedMask))
	}
	if t.needData {
		if t.found {
			if t.dataArrived {
				e.installWrite(t)
				e.retire(t)
			}
			// Otherwise the data-arrival event completes the write.
			return
		}
		e.startMemoryRead(t)
		return
	}
	// Upgrade: perform the write now if a CMP-local copy survived the
	// races (the data may live in another local core's cache).
	if !e.completeUpgrade(t.node, t.core, t.addr) {
		// Every local copy was invalidated by a racing winner: retry as
		// a miss.
		e.scheduleRetry(t)
		return
	}
	t.installed = true
	if t.done != nil {
		t.done()
	}
	e.retire(t)
}

// completeUpgrade performs an upgrade write using any surviving CMP-local
// copy as the data source, reporting false when none remains.
func (e *Engine) completeUpgrade(nodeID, coreID int, addr cache.LineAddr) bool {
	n := e.nodes[nodeID]
	hasAny := false
	for c := range n.l2 {
		if n.l2[c].Contains(addr) {
			hasAny = true
			break
		}
	}
	if !hasAny {
		return false
	}
	// Invalidate every other local copy first (one may be the local or
	// global master).
	for c := range n.l2 {
		if c != coreID && n.l2[c].Contains(addr) {
			e.invalidateCoreLine(nodeID, c, addr)
		}
	}
	if n.l2[coreID].Contains(addr) {
		e.performWrite(nodeID, coreID, addr)
	} else {
		v := e.nextVersion(addr)
		e.observe(nodeID, coreID, true, addr, v)
		e.installLine(nodeID, coreID, addr, cache.Dirty, v)
	}
	return true
}

// finishSquashed drains a squashed transaction and schedules its retry.
func (e *Engine) finishSquashed(t *txn) {
	if t.found && !t.dataArrived {
		return // keep draining: supplied data is still in flight
	}
	if t.installed {
		// The line was supplied and installed before the squash caught
		// up: the access already completed (the supplier serialized us
		// first), so there is nothing to retry.
		e.retire(t)
		return
	}
	if t.dataArrived && t.dataDirty {
		// The supplier invalidated itself for us; preserve the data.
		e.nodes[e.homeOf(t.addr)].mem.WriteBack(t.addr, t.dataVersion)
		e.stats.Writebacks++
	}
	e.scheduleRetry(t)
}

// scheduleRetry retires this attempt and reissues it after a backoff that
// grows with the retry count (breaking pathological phase-locks between
// repeatedly colliding transactions), preserving age, waiters and the
// completion callback.
func (e *Engine) scheduleRetry(t *txn) {
	mult := t.retries + 1
	if mult > 16 {
		mult = 16
	}
	e.retryAfter(t, sim.Time(e.cfg.RetryBackoffCycles*mult))
}

// retryAfter retires this attempt and reissues it after an explicit
// backoff, preserving age, waiters and the completion callback. Collision
// squashes back off linearly (scheduleRetry); timeout retransmits back
// off exponentially (onTxnDeadline).
func (e *Engine) retryAfter(t *txn, backoff sim.Time) {
	retry := &txn{
		kind: t.kind, addr: t.addr, node: t.node, core: t.core,
		age: t.age, done: t.done, waiters: t.waiters, retries: t.retries + 1,
		timeoutRetries: t.timeoutRetries,
	}
	t.waiters = nil
	if e.tel != nil {
		e.tel.TxnEvent(e.now(), uint64(t.id), "retry", t.node)
	}
	e.retire(t)
	e.stats.Retries++
	if e.retryLines == nil {
		c := e.newCall()
		c.e, c.t = e, retry
		e.kern.AfterArg(backoff, restartCall, c)
		return
	}
	// Fault runs track parked retries per line so the watchdog's
	// degradation pass sees work hiding in backoff timers.
	*e.retryLines.Upsert(uint64(retry.addr))++
	e.kern.After(backoff, func() {
		if c, _ := e.retryLines.Get(uint64(retry.addr)); c > 1 {
			e.retryLines.Put(uint64(retry.addr), c-1)
		} else {
			e.retryLines.Delete(uint64(retry.addr))
		}
		e.restart(retry)
	})
}

// deliverData handles a data-transfer message (torus) arriving at the
// requester.
func (e *Engine) deliverData(txnID ring.TxnID, version uint64, dirty bool) {
	t, ok := e.byID.Get(uint64(txnID))
	if !ok {
		return
	}
	if t.memPhase {
		// Only possible under injected faults: a delayed request half was
		// re-snooped after a reordered negative reply already sent us to
		// memory. memReadDone owns completion now, and the supplier kept
		// (read) or wrote back (write) its copy, so dropping this late
		// transfer loses nothing.
		return
	}
	t.dataArrived = true
	t.dataVersion = version
	t.dataDirty = dirty
	if e.tel != nil {
		e.tel.TxnEvent(e.now(), uint64(t.id), "data", t.node)
	}
	if t.squashed {
		if t.replyReturned {
			e.finishSquashed(t)
		}
		return
	}
	if t.kind == ring.ReadSnoop {
		// A read's line is usable as soon as the data arrives (Section
		// 2.2): install immediately, as the CMP's local master unless
		// the S_L ablation is on.
		st := cache.SharedLocal
		if e.cfg.DisableLocalMaster {
			st = cache.Shared
		}
		e.installRead(t, st, version)
		e.maybeRetire(t)
		return
	}
	// A write may not be performed until every node has invalidated: the
	// data stays buffered in the transaction until the reply returns.
	// Colliding snoops for the line are held off meanwhile (the line is
	// in limbo between the old supplier and us).
	if t.replyReturned {
		e.installWrite(t)
		e.retire(t)
	}
}

// installRead places a read transaction's line in the requesting core.
func (e *Engine) installRead(t *txn, st cache.State, version uint64) {
	if t.installed {
		return
	}
	t.installed = true
	e.observe(t.node, t.core, false, t.addr, version)
	if t.noInstall {
		// Deliver the value once without caching: an overlapping write
		// may already be past this node and could never invalidate a
		// late install.
		e.stats.UseOnceReads++
	} else {
		e.installLine(t.node, t.core, t.addr, st, version)
	}
	lat := uint64(e.now() - t.issued)
	e.stats.ReadMissCycles += lat
	e.stats.ReadMissCount++
	e.stats.ReadMissHist[HistBucket(lat)]++
	if t.done != nil {
		t.done()
	}
}

// installWrite performs a data-carrying write: install dirty, stamp a new
// write generation.
func (e *Engine) installWrite(t *txn) {
	if t.installed {
		return
	}
	t.installed = true
	v := e.nextVersion(t.addr)
	e.observe(t.node, t.core, true, t.addr, v)
	e.installLine(t.node, t.core, t.addr, cache.Dirty, v)
	// The completed invalidation sweep made us the only holder.
	e.nodes[e.homeOf(t.addr)].mem.ClearShared(t.addr)
	if t.done != nil {
		t.done()
	}
}

// startMemoryRead begins the memory phase after a negative ring reply.
func (e *Engine) startMemoryRead(t *txn) {
	t.memPhase = true
	if e.tel != nil {
		e.tel.TxnEvent(e.now(), uint64(t.id), "memread", e.homeOf(t.addr))
	}
	home := e.nodes[e.homeOf(t.addr)]
	rt := home.mem.ReadLatency(e.now(), t.addr, t.node)
	if s, ok := e.lines.find(t.addr); ok && e.lines.flags[s]&lineDowngraded != 0 {
		// Re-read of a line the Exact predictor downgraded: charged to
		// the algorithm (Section 6.1.4).
		e.lines.flags[s] &^= lineDowngraded
		e.meter.AddExtraMemAccess()
		e.stats.DowngradeRereads++
	}
	c := e.newCall()
	c.e, c.t = e, t
	e.kern.AfterArg(rt, memReadCall, c)
}

// memReadDone completes a transaction's memory phase. While a transaction
// is in memPhase every other completion path is gated off (onReplyComplete
// returns early; no data transfer is in flight), so only this callback can
// retire it — which is what makes recycling retired transactions safe.
func (e *Engine) memReadDone(t *txn) {
	home := e.nodes[e.homeOf(t.addr)]
	version := home.mem.Version(t.addr)
	if t.retired {
		return
	}
	if t.squashed {
		t.dataArrived = true
		t.dataVersion = version
		e.finishSquashed(t)
		return
	}
	t.dataArrived = true
	t.dataVersion = version
	e.stats.MemorySupplies++
	if t.kind == ring.ReadSnoop {
		// The ring circuit never snoops the requester's own CMP: a
		// sibling core may hold a plain-S copy only it knows about.
		localSharer := false
		for c := range e.nodes[t.node].l2 {
			if c != t.core && e.nodes[t.node].l2[c].Contains(t.addr) {
				localSharer = true
				break
			}
		}
		st := cache.SharedGlobal
		switch {
		case t.sharedGrant:
			// A concurrent read crossed us: neither may become a
			// master; memory keeps supplying this line, and the
			// home remembers the masterless copies.
			st = cache.Shared
			home.mem.MarkShared(t.addr)
		case !t.sharerSeen && !localSharer && !home.mem.SharedMarked(t.addr):
			// No sharer among the snooped nodes, none in our own
			// CMP, and the home guarantees no masterless sharers
			// hide at filtered nodes (every plain-S-without-master
			// path sets the home's mark): Exclusive is safe even
			// though filtering algorithms snooped only a subset.
			st = cache.Exclusive
		}
		e.installRead(t, st, version)
	} else {
		e.installWrite(t)
	}
	e.retire(t)
}

// msgAllSnooped reports whether every node except the requester snooped.
func msgAllSnooped(mask uint64, requester, numNodes int) bool {
	want := uint64(1)<<uint(numNodes) - 1
	want &^= uint64(1) << uint(requester)
	return mask&want == want
}

// maybeRetire retires a found transaction once both the data and the ring
// reply are in.
func (e *Engine) maybeRetire(t *txn) {
	if t.replyReturned && (!t.found || t.dataArrived) && t.installed {
		e.retire(t)
	}
}

// retire releases the transaction's MSHR slot, wakes waiters and blocked
// messages, and pops the issue queue.
func (e *Engine) retire(t *txn) {
	if t.retired {
		return
	}
	t.retired = true
	if e.tel != nil {
		e.tel.TxnComplete(e.now(), uint64(t.id))
	}
	n := e.nodes[t.node]
	e.byID.Delete(uint64(t.id))
	if t.kind == ring.WriteSnoop {
		if s, ok := e.lines.find(t.addr); ok && e.lines.liveWrites[s] > 0 {
			e.lines.liveWrites[s]--
		}
	}
	if own, _ := n.outstanding.Get(uint64(t.addr)); own == t {
		n.outstanding.Delete(uint64(t.addr))
	}
	n.activeTxns--
	for _, w := range t.waiters {
		c := e.newCall()
		c.e, c.t = e, w
		e.kern.AfterArg(1, restartCall, c)
	}
	t.waiters = nil
	// Re-deliver blocked messages synchronously and in order: the request
	// must be re-processed before its trailing reply can arrive, and the
	// modeBlocked bookkeeping must be cleared first so each message is
	// handled afresh.
	blocked := t.blockedMsgs
	t.blockedMsgs = nil
	for _, bm := range blocked {
		if st, _ := n.ringStates.Get(uint64(bm.m.Txn)); st != nil && st.mode == modeBlocked {
			n.dropState(bm.m.Txn)
		}
	}
	for _, bm := range blocked {
		e.deliver(bm.ringIdx, t.node, bm.m)
	}
	if len(n.issueQueue) > 0 && n.activeTxns < e.cfg.MaxTransactionsPerNode {
		next := n.issueQueue[0]
		n.issueQueue = n.issueQueue[1:]
		e.kern.After(1, func() { e.restart(next) })
	}
	e.retires++
	e.cancelDeadlines(t)
	// All references are gone: byID/outstanding entries deleted, waiters
	// drained, blocked messages redelivered, deadlines cancelled. Recycle
	// the record.
	e.freeTxn(t)
}

// nextVersion stamps a new global write generation for the line.
func (e *Engine) nextVersion(addr cache.LineAddr) uint64 {
	return e.lines.nextVersion(addr)
}
