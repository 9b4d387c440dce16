package protocol

import (
	"flexsnoop/internal/cache"
	"flexsnoop/internal/config"
	"flexsnoop/internal/core"
	"flexsnoop/internal/ring"
	"flexsnoop/internal/sim"
)

const predictorSupersetKind = config.PredictorSuperset

// ringMode is a node's chosen handling for one in-flight transaction.
type ringMode int

const (
	modeNone ringMode = iota
	// modeSquash: the (split) request passed here squashed; mark the
	// trailing reply when it arrives.
	modeSquash
	// modeFTS: ForwardThenSnoop — request forwarded, local snoop pending,
	// reply to be merged.
	modeFTS
	// modeSTF: SnoopThenForward — message held until the snoop completes.
	modeSTF
	// modeBlocked: the request is held behind a local write whose data is
	// in limbo; its trailing reply must queue behind it, not overtake.
	modeBlocked
)

// ringState is a node's per-transaction bookkeeping for split messages
// (Table 2).
type ringState struct {
	mode ringMode

	// debug provenance
	dbgKind      ring.Kind
	dbgRequester int

	// predictedPositive: the predictor said "supplier here" (trains the
	// exclude cache on a miss).
	predictedPositive bool

	// heldMsg (STF) is the message held while snooping.
	heldMsg *ring.Message
	// replyHalf (FTS) is the reply component retained when splitting a
	// combined message.
	replyHalf *ring.Message
	// pendingReply is a trailing reply that arrived before the local
	// snoop completed.
	pendingReply *ring.Message
	// awaitingTrailingReply: the input was request-only; a reply trails.
	awaitingTrailingReply bool

	// blockedOn is the local write transaction holding this message's
	// request (modeBlocked).
	blockedOn *txn

	outcomeReady bool
	localFound   bool
	// localSquash: the supplier squashed this write (in-flight supplied
	// read must serialize first).
	localSquash  bool
	sentOwnReply bool

	localMask   uint64
	localSharer bool
	localInvAck int
}

// forward transmits a message segment from a node to its ring successor
// and schedules delivery, charging link energy.
func (e *Engine) forward(ringIdx, from int, m *ring.Message) {
	e.forwardAt(e.now(), ringIdx, from, m)
}

// forwardAt is forward with an explicit earliest departure time (predictor
// or snoop delays). The transmission is buffered as a txIntent and
// arbitrated when the cycle's events have drained (see transmit.go), so
// the link-arbitration order within a cycle is the handler execution
// order.
func (e *Engine) forwardAt(depart sim.Time, ringIdx, from int, m *ring.Message) {
	e.meter.AddRingLinks(1)
	e.txq[ringIdx] = append(e.txq[ringIdx], txIntent{depart: depart, from: from, m: m})
	e.txTotal++
}

// deliver processes a message arriving at a node.
func (e *Engine) deliver(ringIdx, nodeID int, m *ring.Message) {
	if m.Dup {
		// A fault-injected duplicate: the receiver's sequence check
		// rejects it on arrival, whatever it carries.
		e.msgPool.Put(m)
		return
	}
	if m.Requester == nodeID {
		e.consumeReturn(ringIdx, m)
		return
	}
	if m.HasRequest {
		e.handleRequest(ringIdx, nodeID, m)
		return
	}
	e.handleReplyOnly(ringIdx, nodeID, m)
}

// handleRequest processes a message carrying a request component
// (combined or request-only).
func (e *Engine) handleRequest(ringIdx, nodeID int, m *ring.Message) {
	n := e.nodes[nodeID]

	// Prefetch heuristic: the gateway sees every passing read request;
	// at the line's home node it may start a DRAM prefetch (Section 2.2).
	if m.Kind == ring.ReadSnoop && !m.Squashed && !m.Found && e.homeOf(m.Addr) == nodeID {
		n.mem.NotifySnoop(e.now(), m.Addr)
	}

	// Squashed transactions perform no further snoops.
	if m.Squashed {
		if !m.HasReply {
			st := n.stateForMsg(m)
			st.mode = modeSquash
		}
		e.forward(ringIdx, nodeID, m)
		return
	}

	// Collision detection (Section 2.1.4): messages may be squashed or
	// briefly held; the node's own transaction may be squashed instead.
	if blocked := e.handleCollision(ringIdx, nodeID, m); blocked {
		return
	}
	if m.Squashed { // lost the collision just now
		if !m.HasReply {
			st := n.stateForMsg(m)
			st.mode = modeSquash
		}
		e.forward(ringIdx, nodeID, m)
		return
	}

	// A read whose supplier is already found needs no more snoops: the
	// message traverses the rest of the ring as a mere reply.
	if m.Kind == ring.ReadSnoop && m.Found {
		e.forward(ringIdx, nodeID, m)
		return
	}

	if m.Kind == ring.ReadSnoop {
		e.handleReadRequest(ringIdx, nodeID, m)
	} else {
		e.handleWriteRequest(ringIdx, nodeID, m)
	}
}

// handleReadRequest applies the node's Flexible Snooping policy.
func (e *Engine) handleReadRequest(ringIdx, nodeID int, m *ring.Message) {
	n := e.nodes[nodeID]
	var decision core.Decision
	if e.forcedEager(m.Addr) {
		// The watchdog degraded this line: forward eagerly and snoop in
		// parallel at every node, bypassing predictor and filtering.
		decision = core.Decision{Primitive: core.ForwardThenSnoop}
	} else if n.pred != nil {
		// predictFn is a persistent per-node closure (built in NewEngine)
		// that reads these scratch fields; rebuilding it per call was the
		// single largest allocation source on the hot path.
		n.predictAddr = m.Addr
		n.predictActual = n.supplierIdx.Has(uint64(m.Addr))
		decision = n.policy.DecideRead(n.predictFn)
	} else {
		decision = n.policy.DecideRead(nil)
	}
	delay := sim.Time(0)
	if decision.CheckedPredictor {
		delay = sim.Time(e.predCfg.AccessCycles)
	}

	switch decision.Primitive {
	case core.Forward:
		// Adaptive filtering: skip the snoop entirely. No per-node state
		// is needed; a trailing reply passes through unchanged.
		e.forwardAt(e.now()+delay, ringIdx, nodeID, m)

	case core.ForwardThenSnoop:
		st := n.stateForMsg(m)
		st.mode = modeFTS
		st.predictedPositive = decision.Predicted
		reqHalf := e.msgPool.CloneFrom(m)
		reqHalf.HasReply = false
		reqHalf.Found = false
		reqHalf.SharerSeen = false
		reqHalf.SnoopedMask = 0
		reqHalf.InvAcks = 0
		e.forwardAt(e.now()+delay, ringIdx, nodeID, reqHalf)
		if m.HasReply {
			replyHalf := e.msgPool.CloneFrom(m)
			replyHalf.HasRequest = false
			st.replyHalf = replyHalf
		} else {
			st.awaitingTrailingReply = true
		}
		e.scheduleSnoop(ringIdx, nodeID, m, st, delay)

	case core.SnoopThenForward:
		st := n.stateForMsg(m)
		st.mode = modeSTF
		st.predictedPositive = decision.Predicted
		st.heldMsg = m
		if !m.HasReply {
			st.awaitingTrailingReply = true
		}
		e.scheduleSnoop(ringIdx, nodeID, m, st, delay)
	}
}

// handleWriteRequest invalidates at every node; the Eager class forwards
// before snooping (parallel invalidation), the Lazy class after (Section
// 5.3). Write snoops cannot use the supplier predictor.
func (e *Engine) handleWriteRequest(ringIdx, nodeID int, m *ring.Message) {
	n := e.nodes[nodeID]
	st := n.stateForMsg(m)
	if n.policy.DecoupleWrites() || e.forcedEager(m.Addr) {
		st.mode = modeFTS
		reqHalf := e.msgPool.CloneFrom(m)
		reqHalf.HasReply = false
		reqHalf.Found = m.Found // writes keep invalidating after a supply
		reqHalf.SharerSeen = false
		reqHalf.SnoopedMask = 0
		reqHalf.InvAcks = 0
		e.forward(ringIdx, nodeID, reqHalf)
		if m.HasReply {
			replyHalf := e.msgPool.CloneFrom(m)
			replyHalf.HasRequest = false
			st.replyHalf = replyHalf
		} else {
			st.awaitingTrailingReply = true
		}
	} else {
		st.mode = modeSTF
		st.heldMsg = m
		if !m.HasReply {
			st.awaitingTrailingReply = true
		}
	}
	e.scheduleSnoop(ringIdx, nodeID, m, st, 0)
}

// scheduleSnoop books the CMP bus for the snoop operation and runs the
// outcome when it completes.
func (e *Engine) scheduleSnoop(ringIdx, nodeID int, m *ring.Message, st *ringState, extraDelay sim.Time) {
	n := e.nodes[nodeID]
	start := n.cmpBus.Reserve(e.now()+extraDelay, sim.Time(e.cfg.BusOccupancyCycles))
	finish := start + sim.Time(e.cfg.CMPSnoopCycles)
	if m.Kind == ring.ReadSnoop {
		e.stats.ReadSnoopOps++
	} else {
		e.stats.WriteSnoopOps++
	}
	e.meter.AddSnoopOp()
	c := e.newCall()
	c.e, c.ringIdx, c.node, c.m, c.st = e, ringIdx, nodeID, m, st
	e.kern.ScheduleArg(finish, snoopCall, c)
}

// snoopComplete applies the snoop outcome and dispatches the reply per
// Table 2.
//
// Serialization at the supplier (Section 2.1.4's "collision detected by
// the processor supplying a response"): if this node supplied a read
// whose data is still in flight to a requester the write has ALREADY
// passed, the write can no longer invalidate that copy — the supplier
// squashes the write, which retries a full circuit. Supplies to
// requesters the write has not yet visited are safe: the write's own
// snoop there will invalidate the fresh copy (or the requester-side
// collision rules resolve it).
func (e *Engine) snoopComplete(ringIdx, nodeID int, m *ring.Message, st *ringState) {
	mode := st.mode
	e.snoopOutcome(ringIdx, nodeID, m, st)
	if mode == modeFTS {
		// In FTS the request half was cloned and forwarded before the
		// snoop; m only carried the snoop context and is now dead. (In
		// STF m is the held message itself and lives on.)
		e.msgPool.Put(m)
	}
}

// snoopOutcome applies the snoop result.
func (e *Engine) snoopOutcome(ringIdx, nodeID int, m *ring.Message, st *ringState) {
	n := e.nodes[nodeID]
	st.outcomeReady = true
	st.localMask = uint64(1) << uint(nodeID)
	if e.tel != nil {
		e.tel.TxnEvent(e.now(), uint64(m.Txn), "snoop", nodeID)
	}

	if m.Kind == ring.ReadSnoop {
		supCore, hasSup := n.supplierIdx.Get(uint64(m.Addr))
		anyCopy := false
		for c := range n.l2 {
			if n.l2[c].Contains(m.Addr) {
				anyCopy = true
				break
			}
		}
		st.localSharer = anyCopy
		if hasSup {
			st.localFound = true
			line := n.l2[supCore].Lookup(m.Addr)
			n.l2[supCore].SetState(m.Addr, cache.SupplyTransition(line.State))
			e.stats.CacheSupplies++
			e.sendData(nodeID, m, line.Version, false)
		} else if st.predictedPositive {
			// The snoop disproved a positive prediction: train the
			// exclude cache (JETTY refinement, Section 4.3.2).
			n.pred.NoteFalsePositive(m.Addr)
		}
	} else {
		sup, hadSup, hadAny := e.invalidateCMP(nodeID, m.Addr)
		if hadSup && (sup.State == cache.SharedGlobal || sup.State == cache.Tagged) {
			// If this write is later squashed, its partial sweep may
			// leave plain-S copies with no master; the completing write
			// clears the mark again.
			e.nodes[e.homeOf(m.Addr)].mem.MarkShared(m.Addr)
		}
		st.localSharer = hadAny
		st.localInvAck = 1
		if hadSup && sup.State.DirtyData() {
			// Invalidating a dirty supplier breaks the supplier chain:
			// reflect the data to home memory immediately so a racing
			// read that finds no supplier cannot observe stale memory.
			e.nodes[e.homeOf(m.Addr)].mem.WriteBack(m.Addr, sup.Version)
			e.stats.Writebacks++
		}
		if hadSup && m.NeedsData {
			st.localFound = true
			e.sendData(nodeID, m, sup.Version, true)
		}
	}
	e.dispatchReply(ringIdx, nodeID, m, st)
}

// sendData transfers the line to the requester over the torus.
func (e *Engine) sendData(nodeID int, m *ring.Message, version uint64, ownership bool) {
	if e.tel != nil {
		e.tel.TxnEvent(e.now(), uint64(m.Txn), "supply", nodeID)
	}
	lat := e.torus.Latency(e.now(), nodeID, m.Requester)
	c := e.newCall()
	c.e, c.id, c.ver, c.dirty = e, m.Txn, version, ownership
	e.kern.AfterArg(lat, dataCall, c)
}

// applyLocalOutcome folds the node's snoop outcome into a reply message.
func (st *ringState) applyLocalOutcome(nodeID int, m *ring.Message) {
	m.SnoopedMask |= st.localMask
	m.SharerSeen = m.SharerSeen || st.localSharer
	m.InvAcks += st.localInvAck
	m.Squashed = m.Squashed || st.localSquash
	if st.localFound {
		m.Found = true
		m.Supplier = nodeID
	}
}

// dispatchReply implements the send/wait/merge rules of Table 2 after the
// local snoop outcome is known.
func (e *Engine) dispatchReply(ringIdx, nodeID int, m *ring.Message, st *ringState) {
	n := e.nodes[nodeID]
	// The "send own reply, discard the upstream one" fast path applies
	// only to reads: a write's upstream reply carries invalidation acks
	// that must never be dropped.
	fastFound := st.localFound && m.Kind == ring.ReadSnoop
	switch st.mode {
	case modeFTS:
		if fastFound {
			// Send our own reply now; a later upstream reply carries no
			// new information and is discarded (Table 2).
			out := e.msgPool.Get()
			out.Txn, out.Kind, out.Addr, out.Requester = m.Txn, m.Kind, m.Addr, m.Requester
			out.Age, out.NeedsData, out.HasReply = m.Age, m.NeedsData, true
			if st.replyHalf != nil {
				out.MergeReply(st.replyHalf)
				e.msgPool.Put(st.replyHalf)
				st.replyHalf = nil
			}
			st.applyLocalOutcome(nodeID, out)
			st.sentOwnReply = true
			e.forward(ringIdx, nodeID, out)
			// Drop unless a trailing reply is still due; one that already
			// arrived (pendingReply) counts as absorbed.
			if !st.awaitingTrailingReply || st.pendingReply != nil {
				e.msgPool.Put(st.pendingReply)
				n.dropState(m.Txn)
			}
			return
		}
		if st.replyHalf != nil {
			st.applyLocalOutcome(nodeID, st.replyHalf)
			e.forward(ringIdx, nodeID, st.replyHalf)
			n.dropState(m.Txn)
			return
		}
		if st.pendingReply != nil {
			st.applyLocalOutcome(nodeID, st.pendingReply)
			e.forward(ringIdx, nodeID, st.pendingReply)
			n.dropState(m.Txn)
			return
		}
		// Wait for the trailing reply (Table 2: "else wait for snoop
		// reply"); handleReplyOnly finishes the send.

	case modeSTF:
		held := st.heldMsg
		if fastFound {
			// Send a combined R/R with the positive outcome; downstream
			// nodes of a read forward it without snooping.
			held.HasRequest = true
			held.HasReply = true
			st.applyLocalOutcome(nodeID, held)
			st.sentOwnReply = true
			e.forward(ringIdx, nodeID, held)
			if !st.awaitingTrailingReply || st.pendingReply != nil {
				e.msgPool.Put(st.pendingReply)
				n.dropState(m.Txn)
			}
			return
		}
		if held.HasReply {
			st.applyLocalOutcome(nodeID, held)
			e.forward(ringIdx, nodeID, held)
			n.dropState(m.Txn)
			return
		}
		if st.pendingReply != nil {
			held.HasReply = true
			held.MergeReply(st.pendingReply)
			e.msgPool.Put(st.pendingReply)
			st.applyLocalOutcome(nodeID, held)
			e.forward(ringIdx, nodeID, held)
			n.dropState(m.Txn)
			return
		}
		// Request-only held; wait for the trailing reply.
	}
}

// handleReplyOnly processes a trailing reply component.
func (e *Engine) handleReplyOnly(ringIdx, nodeID int, m *ring.Message) {
	n := e.nodes[nodeID]
	st, _ := n.ringStates.Get(uint64(m.Txn))
	if st == nil {
		// This node filtered (Forward) or never saw the request: pass
		// the reply through.
		e.forward(ringIdx, nodeID, m)
		return
	}
	switch st.mode {
	case modeBlocked:
		// Queue behind the blocked request so it cannot be overtaken.
		st.blockedOn.blockedMsgs = append(st.blockedOn.blockedMsgs, blockedMsg{ringIdx: ringIdx, m: m})
	case modeSquash:
		m.Squashed = true
		n.dropState(m.Txn)
		e.forward(ringIdx, nodeID, m)
	case modeFTS:
		if st.sentOwnReply {
			// Our positive reply already left; this one is stale.
			n.dropState(m.Txn)
			e.msgPool.Put(m)
			return
		}
		if st.outcomeReady {
			st.applyLocalOutcome(nodeID, m)
			n.dropState(m.Txn)
			e.forward(ringIdx, nodeID, m)
			return
		}
		st.pendingReply = m
	case modeSTF:
		if st.sentOwnReply {
			n.dropState(m.Txn)
			e.msgPool.Put(m)
			return
		}
		if st.outcomeReady {
			held := st.heldMsg
			held.HasReply = true
			held.MergeReply(m)
			st.applyLocalOutcome(nodeID, held)
			n.dropState(m.Txn)
			e.forward(ringIdx, nodeID, held)
			e.msgPool.Put(m)
			return
		}
		st.pendingReply = m
	default:
		n.dropState(m.Txn)
		e.forward(ringIdx, nodeID, m)
	}
}

// handleCollision resolves same-line transaction collisions at a
// requester node (Section 2.1.4). Returns true when the message was
// blocked pending the local write's completion.
//
// The scheme: reads are never squashed. A read that overlaps a write
// completes "use-once" — its data is delivered to the core but not
// cached (txn.noInstall), so no copy can go stale behind the write's
// invalidation sweep. Crossing reads demote each other's memory grants
// to plain Shared. Only write-write pairs arbitrate, by age, with
// found-immunity (a write that already claimed the line's data cannot be
// squashed by another write; claimed data is never lost — a squashed
// claimant writes it back to memory while draining).
func (e *Engine) handleCollision(ringIdx, nodeID int, m *ring.Message) (blocked bool) {
	n := e.nodes[nodeID]
	own, ok := n.outstanding.Get(uint64(m.Addr))
	if !ok || own.squashed || own.id == m.Txn {
		return false
	}

	if own.kind == ring.ReadSnoop {
		if m.Kind == ring.ReadSnoop {
			// Concurrent reads both proceed, but neither may claim a
			// master state (E/S_G) from memory — two masters would
			// break supplier uniqueness.
			if !own.installed && !own.dataArrived {
				own.sharedGrant = true
			}
			if !m.Found {
				m.SharedGrant = true
			}
			return false
		}
		// A write is sweeping past while our read is in flight: the
		// read may still complete, but must not cache a copy this
		// write can no longer see.
		if !own.installed {
			own.noInstall = true
		}
		return false
	}

	// own is a write.
	if m.Kind == ring.ReadSnoop {
		// The read completes use-once (it was marked at launch, or the
		// write's own circuit marks it at its requester); nothing to
		// arbitrate here.
		return false
	}

	// Write-write arbitration.
	if m.Found {
		// The incoming write already claimed the line's data; ours
		// loses unless effectively complete.
		if !own.installed && !own.dataArrived {
			e.squashLocal(own)
		}
		return false
	}
	if own.dataArrived && !own.installed {
		// Our write holds the line's only copy in flight; hold the
		// colliding write until ours performs. A trailing reply of a
		// held split request must queue behind it (modeBlocked), or it
		// would overtake its own request on the ring.
		if !m.HasReply {
			st := n.stateForMsg(m)
			st.mode = modeBlocked
			st.blockedOn = own
		}
		own.blockedMsgs = append(own.blockedMsgs, blockedMsg{ringIdx: ringIdx, m: m})
		return true
	}
	if own.installed {
		return false
	}
	if older(m.Age, m.Requester, own.age, own.node) {
		e.squashLocal(own)
		return false
	}
	m.Squashed = true
	e.stats.Squashes++
	if e.tel != nil {
		e.tel.TxnEvent(e.now(), uint64(m.Txn), "squash", nodeID)
	}
	return false
}

// stateFor returns (creating if needed) the node's bookkeeping for a
// transaction.
func (n *node) stateFor(id ring.TxnID) *ringState {
	p := n.ringStates.Upsert(uint64(id))
	if *p == nil {
		*p = n.e.newRingState()
	}
	return *p
}

// stateForMsg is stateFor plus debug provenance.
func (n *node) stateForMsg(m *ring.Message) *ringState {
	st := n.stateFor(m.Txn)
	st.dbgKind = m.Kind
	st.dbgRequester = m.Requester
	return st
}

// dropState releases a transaction's bookkeeping back to the free list.
// Callers must be done with the record and any messages it still holds.
func (n *node) dropState(id ring.TxnID) {
	if st, ok := n.ringStates.Get(uint64(id)); ok {
		n.ringStates.Delete(uint64(id))
		n.e.rsPool = append(n.e.rsPool, st)
	}
}
