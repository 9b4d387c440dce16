// Package protocol implements the embedded-ring snoopy coherence engine:
// CMP nodes with private per-core L2 caches, ring gateways running the
// Flexible Snooping primitives, collision detection with squash-and-retry,
// the distributed memory path, and the MESI + S_L/S_G/T state machine of
// Section 2.2.
package protocol

import (
	"fmt"

	"flexsnoop/internal/bus"
	"flexsnoop/internal/cache"
	"flexsnoop/internal/config"
	"flexsnoop/internal/core"
	"flexsnoop/internal/energy"
	"flexsnoop/internal/fault"
	"flexsnoop/internal/hotmap"
	"flexsnoop/internal/interconnect"
	"flexsnoop/internal/memory"
	"flexsnoop/internal/predictor"
	"flexsnoop/internal/ring"
	"flexsnoop/internal/sim"
	"flexsnoop/internal/telemetry"
)

// AccessKind is a processor-side memory reference type.
type AccessKind int

const (
	// Load is a read reference.
	Load AccessKind = iota
	// Store is a write reference.
	Store
)

// Engine is the machine-wide coherence engine.
type Engine struct {
	cfg     config.MachineConfig
	predCfg config.PredictorConfig
	kern    *sim.Kernel

	nodes []*node
	rings []*ring.Ring
	torus *interconnect.Torus
	meter *energy.Meter

	// lines holds the machine-global per-line metadata — write
	// generations, live-write counts, and the downgraded/eager flag
	// bits — in one struct-of-arrays table (see linetab.go).
	lines *lineTab

	txnSeq ring.TxnID
	byID   hotmap.Table[*txn]

	// Cycle-batched transmit stage (see transmit.go): per-ring buffered
	// transmit intents and their total.
	txq     [][]txIntent
	txTotal int

	stats Stats

	retires uint64 // retired transactions, retry handoffs included

	// observer, when set, receives every performed reference with the
	// data generation it bound (tests use it to verify per-core
	// monotonicity of observed versions).
	observer func(node, core int, write bool, addr cache.LineAddr, version uint64)

	// tel, when non-nil, receives transaction lifecycle events and
	// serves interval samples (the telemetry layer). Every emit site
	// guards with a nil check, so the disabled cost is one comparison.
	tel *telemetry.Collector

	// Fault-injection and hardening state (see fault.go). inj is nil on
	// fault-free runs; every hot-path hook guards on that, so a disabled
	// run stays cycle-identical. deadlineCycles is the per-attempt snoop
	// response deadline; eagerCount counts lines the watchdog degraded
	// to Eager forwarding (their lineEager flag lives in e.lines, and a
	// zero count keeps the fault-free fast path to one comparison);
	// failErr latches the first unrecoverable failure.
	inj               *fault.Injector
	deadlineCycles    sim.Time
	maxTimeoutRetries int
	eagerCount        int
	failErr           error
	// linkFloor[ring][from] is the latest arrival already scheduled on a
	// link: injected delays and stalls push subsequent traffic on the
	// same link behind them, so the ring's per-link FIFO order survives
	// injection (reordering within a link would let a reply overtake its
	// own request — a network no ring can produce).
	linkFloor [][]sim.Time
	// retryLines counts parked timeout retransmits per line, so the
	// watchdog's degradation pass can see work hiding in backoff timers.
	// Nil on fault-free runs (it doubles as the "fault run" marker in
	// retryAfter).
	retryLines *hotmap.Table[int32]

	// Free lists (see pool.go). Single-threaded, so plain slices suffice.
	msgPool ring.Pool
	txnPool []*txn
	rsPool  []*ringState
	ccPool  []*callCtx
	pcPool  []*pathCtx
}

// SetTelemetry installs the run's telemetry collector and, when link-hop
// tracing is requested, the per-ring send probes.
func (e *Engine) SetTelemetry(c *telemetry.Collector) {
	e.tel = c
	if c == nil || !c.TraceHops() {
		return
	}
	for ri, r := range e.rings {
		ri, r := ri, r
		r.OnSend = func(depart, arrive sim.Time, from int, m *ring.Message) {
			c.RingHop(depart, ri, from, r.Next(from), uint64(m.Txn))
		}
	}
}

// TelemetrySample snapshots the cumulative counters the interval sampler
// differences: ring/bus/DRAM busy cycles, request and squash counts,
// outstanding transactions, predictor accuracy and energy.
func (e *Engine) TelemetrySample() telemetry.Sample {
	s := telemetry.Sample{
		OutstandingTxns: e.byID.Len(),
		ReadRequests:    e.stats.ReadRequests,
		WriteRequests:   e.stats.WriteRequests,
		SnoopOps:        e.stats.ReadSnoopOps + e.stats.WriteSnoopOps,
		Squashes:        e.stats.Squashes,
		Retries:         e.stats.Retries,
		PredTP:          e.stats.Accuracy.TruePos,
		PredTN:          e.stats.Accuracy.TrueNeg,
		PredFP:          e.stats.Accuracy.FalsePos,
		PredFN:          e.stats.Accuracy.FalseNeg,
		EnergyNJ:        e.meter.TotalNJ(),
	}
	for _, r := range e.rings {
		s.RingBusyCycles += r.BusyCycles()
		s.RingLinks += r.Nodes()
	}
	for _, n := range e.nodes {
		s.BusBusyCycles += n.cmpBus.BusyCycles
		s.Buses++
		s.DRAMBusyCycles += n.mem.BusyCycles()
		s.DRAMChannels++
	}
	return s
}

// SetObserver installs a reference observer (testing hook).
func (e *Engine) SetObserver(fn func(node, core int, write bool, addr cache.LineAddr, version uint64)) {
	e.observer = fn
}

// observe reports one performed reference to the observer.
func (e *Engine) observe(node, core int, write bool, addr cache.LineAddr, version uint64) {
	if e.observer != nil {
		e.observer(node, core, write, addr, version)
	}
}

// Options configures engine construction.
type Options struct {
	Machine   config.MachineConfig
	Predictor config.PredictorConfig
	// PolicyFor supplies the snooping policy for each node. Nodes may
	// share one policy value when it is stateless.
	PolicyFor func(node int) core.Policy
	Energy    energy.Params

	// Faults, when it carries rules, injects deterministic link faults
	// into the transmit stage and arms the engine's recovery machinery:
	// per-transaction response deadlines with bounded exponential-backoff
	// retransmit (see fault.go). Nil or empty leaves the engine
	// cycle-identical to a build without the fault layer.
	Faults *fault.Plan

	// LinesPerCore bounds the distinct lines one core references in the
	// run (machine.Run derives it from the workload). It caps the
	// presized per-line tables and the first allocation of the cache
	// arrays, all of which grow on demand, so it changes no result.
	// Zero means no bound: every table starts at its full default size.
	LinesPerCore int
}

// Default presizes of the per-line tables, reached by jobs of about 200
// or more references per core; smaller jobs start them smaller (see
// Options.LinesPerCore).
const (
	lineTabHint     = 4096 // e.lines: every line of the machine
	supplierIdxHint = 1024 // node.supplierIdx: the node's lines
)

// NewEngine builds the coherence engine on a simulation kernel.
func NewEngine(kern *sim.Kernel, opts Options) (*Engine, error) {
	if err := opts.Machine.Validate(); err != nil {
		return nil, err
	}
	if opts.PolicyFor == nil {
		return nil, fmt.Errorf("protocol: Options.PolicyFor is required")
	}
	if err := opts.Predictor.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	m := opts.Machine
	coreLines := opts.LinesPerCore
	if coreLines <= 0 || coreLines > lineTabHint {
		coreLines = lineTabHint // no table is presized beyond this
	}
	nodeLines, machineLines := coreLines*m.CoresPerCMP, coreLines*m.TotalCores()
	e := &Engine{
		cfg:     m,
		predCfg: opts.Predictor,
		kern:    kern,
		torus:   interconnect.NewTorus(m.TorusWidth, m.TorusHeight, m.TorusHopCycles, m.DataSerializationCycles, m.NumCMPs),
		meter:   energy.NewMeter(opts.Energy),
		// Pre-sized for steady-state footprints: tables that rehash
		// mid-run both allocate and perturb wall time, so start them
		// near their working-set sizes, capped by what the job can
		// touch.
		lines: newLineTab(min(lineTabHint, machineLines)),
		byID:  *hotmap.New[*txn](256),
	}
	for i := 0; i < m.NumRings; i++ {
		e.rings = append(e.rings, ring.NewRing(m.NumCMPs, m.RingLinkCycles, ringLinkOccupancyCycles))
	}
	e.txq = make([][]txIntent, m.NumRings)
	kern.EndCycle = e.flushTransmits
	e.deadlineCycles = timeoutDeadline(m, opts.Predictor)
	if opts.Faults.Enabled() {
		e.inj = fault.NewInjector(opts.Faults)
		e.maxTimeoutRetries = opts.Faults.RetryLimit()
		e.linkFloor = make([][]sim.Time, m.NumRings)
		for i := range e.linkFloor {
			e.linkFloor[i] = make([]sim.Time, m.NumCMPs)
		}
		e.retryLines = hotmap.New[int32](64)
	}
	for i := 0; i < m.NumCMPs; i++ {
		n := &node{
			id:          i,
			e:           e,
			mem:         memory.NewController(i, m, machineLines),
			supplierIdx: *hotmap.New[int32](min(supplierIdxHint, nodeLines)),
			outstanding: *hotmap.New[*txn](64),
			ringStates:  *hotmap.New[*ringState](64),
		}
		for c := 0; c < m.CoresPerCMP; c++ {
			n.l1 = append(n.l1, cache.NewArray(m.L1, coreLines))
			n.l2 = append(n.l2, cache.NewArray(m.L2, coreLines))
		}
		pol := opts.PolicyFor(i)
		if pol == nil {
			return nil, fmt.Errorf("protocol: nil policy for node %d", i)
		}
		n.policy = pol
		nodeID := i
		n.pred = predictor.New(opts.Predictor, nodeLines, machineLines, func(a cache.LineAddr) bool {
			return e.nodes[nodeID].supplierIdx.Has(uint64(a))
		})
		if pol.Algorithm().UsesPredictor() && n.pred == nil {
			return nil, fmt.Errorf("protocol: algorithm %v needs a predictor, got none", pol.Algorithm())
		}
		if n.pred != nil {
			// One persistent prediction thunk per node: the per-request
			// inputs ride in scratch fields (see handleReadRequest), so
			// the hot path passes DecideRead an already-allocated
			// closure instead of heap-allocating one per snoop.
			nn := n
			superset := n.pred.Kind() == predictorSupersetKind
			n.predictFn = func() bool {
				predicted := nn.pred.Predict(nn.predictAddr)
				e.meter.AddPredictorLookup(superset)
				e.stats.Accuracy.Classify(predicted, nn.predictActual)
				return predicted
			}
		}
		e.nodes = append(e.nodes, n)
	}
	return e, nil
}

// ringLinkOccupancyCycles is the serialization time of one snoop message
// on an 8 GB/s ring link at 6 GHz (about 8 bytes).
const ringLinkOccupancyCycles = 3

// node is one CMP: cores' private caches, the shared intra-CMP bus, the
// ring gateway with its supplier predictor, and the home-memory slice.
type node struct {
	id int
	e  *Engine

	l1, l2 []*cache.Array
	cmpBus bus.Bus
	policy core.Policy
	pred   predictor.Predictor
	mem    *memory.Controller

	// supplierIdx maps lines held in a global supplier state in this CMP
	// to the core holding them. It is the gateway's ground truth for
	// predictor training and accuracy classification.
	supplierIdx hotmap.Table[int32]

	// outstanding holds the active (non-squashed) transaction per line.
	outstanding hotmap.Table[*txn]
	activeTxns  int
	issueQueue  []*txn

	// ringStates tracks per-foreign-transaction message state (split
	// request/reply bookkeeping, Table 2).
	ringStates hotmap.Table[*ringState]

	// predictFn is the node's persistent prediction thunk for
	// Policy.DecideRead; predictAddr/predictActual are its per-request
	// scratch inputs, written by handleReadRequest just before the call.
	predictFn     func() bool
	predictAddr   cache.LineAddr
	predictActual bool
}

// Meter exposes the energy meter.
func (e *Engine) Meter() *energy.Meter { return e.meter }

// Stats returns a snapshot of the engine statistics.
func (e *Engine) Stats() Stats {
	s := e.stats
	for _, r := range e.rings {
		s.RingSegments += r.Transmitted
		s.ReadRingSegments += r.ReadSegments
		s.RingLinkWaitCycles += r.LinkWaits()
	}
	for _, n := range e.nodes {
		s.MemReads += n.mem.Reads
		s.MemWrites += n.mem.Writes
		s.Prefetches += n.mem.Prefetches
		s.PrefetchHits += n.mem.PrefetchHits
		s.MemQueueCycles += n.mem.QueueCycles()
		if n.pred != nil {
			ps := n.pred.Stats()
			s.PredictorLookups += ps.Lookups
			s.PredictorInserts += ps.Inserts
			s.ExcludeHits += ps.ExcludeHits
		}
		for c := range n.l1 {
			s.L1Hits += n.l1[c].Hits
			s.L1Misses += n.l1[c].Misses
			s.L2Hits += n.l2[c].Hits
			s.L2Misses += n.l2[c].Misses
		}
		s.BusWaitCycles += n.cmpBus.WaitCycles
	}
	return s
}

// Nodes returns the node count.
func (e *Engine) Nodes() int { return len(e.nodes) }

// NodePolicy returns the snooping policy of a node (used by the dynamic
// adaptive governor).
func (e *Engine) NodePolicy(i int) core.Policy { return e.nodes[i].policy }

// LineState returns core c of node n's state for a line (testing and the
// invariant checker).
func (e *Engine) LineState(n, c int, addr cache.LineAddr) cache.State {
	if l := e.nodes[n].l2[c].Lookup(addr); l != nil {
		return l.State
	}
	return cache.Invalid
}

// ForEachLine visits every valid L2 line in the machine.
func (e *Engine) ForEachLine(visit func(node, core int, l cache.Line)) {
	for ni, n := range e.nodes {
		for ci := range n.l2 {
			n.l2[ci].ForEach(func(l cache.Line) { visit(ni, ci, l) })
		}
	}
}

// CachedLines reports how many valid L2 lines the machine holds (sizes
// the checker's gather).
func (e *Engine) CachedLines() int {
	lines := 0
	for _, n := range e.nodes {
		for _, a := range n.l2 {
			lines += a.Len()
		}
	}
	return lines
}

// SupplierIndexed reports whether node n's gateway index lists the line as
// held in a supplier state (checker cross-validation).
func (e *Engine) SupplierIndexed(n int, addr cache.LineAddr) bool {
	return e.nodes[n].supplierIdx.Has(uint64(addr))
}

// ForEachSupplierIndex visits every (node, line) gateway supplier-index
// entry (checker cross-validation).
func (e *Engine) ForEachSupplierIndex(visit func(node int, addr cache.LineAddr)) {
	for ni, n := range e.nodes {
		ni := ni
		n.supplierIdx.ForEach(func(addr uint64, _ int32) {
			visit(ni, cache.LineAddr(addr))
		})
	}
}

// OutstandingTxns reports the number of live transactions (drain checks).
func (e *Engine) OutstandingTxns() int { return e.byID.Len() }

// RingStateCount reports per-node split-message bookkeeping entries still
// held (leak checks: must be zero once the machine drains).
func (e *Engine) RingStateCount() int {
	n := 0
	for _, nd := range e.nodes {
		n += nd.ringStates.Len()
	}
	return n
}

// DebugRingStates describes leaked per-node message states (diagnostics).
func (e *Engine) DebugRingStates() []string {
	var out []string
	for ni, nd := range e.nodes {
		ni := ni
		nd.ringStates.ForEach(func(id uint64, st *ringState) {
			out = append(out, fmt.Sprintf("node=%d txn=%d kind=%v req=%d mode=%d outcome=%v sent=%v awaitTrail=%v pend=%v",
				ni, id, st.dbgKind, st.dbgRequester, st.mode, st.outcomeReady, st.sentOwnReply, st.awaitingTrailingReply, st.pendingReply != nil))
		})
	}
	return out
}

// DebugTxns describes every live transaction (diagnostics).
func (e *Engine) DebugTxns() []string {
	var out []string
	e.byID.ForEach(func(id uint64, t *txn) {
		out = append(out, fmt.Sprintf(
			"txn=%d kind=%v addr=%#x node=%d core=%d age=%d needData=%v upgrade=%v found=%v dataArr=%v replyRet=%v installed=%v squashed=%v memPhase=%v retries=%d waiters=%d blocked=%d",
			id, t.kind, t.addr, t.node, t.core, t.age, t.needData, t.upgrade,
			t.found, t.dataArrived, t.replyReturned, t.installed, t.squashed,
			t.memPhase, t.retries, len(t.waiters), len(t.blockedMsgs)))
	})
	for ni, n := range e.nodes {
		if len(n.issueQueue) > 0 {
			out = append(out, fmt.Sprintf("node %d issueQueue=%d activeTxns=%d", ni, len(n.issueQueue), n.activeTxns))
		}
	}
	if e.retryLines != nil {
		e.retryLines.ForEach(func(addr uint64, c int32) {
			out = append(out, fmt.Sprintf("line %#x: %d retries parked in backoff", addr, c))
		})
	}
	return out
}

// HasActiveTxn reports whether any transaction for the line is in flight
// anywhere in the machine (the line may legitimately be "in limbo").
func (e *Engine) HasActiveTxn(addr cache.LineAddr) bool {
	found := false
	e.byID.ForEach(func(_ uint64, t *txn) {
		if t.addr == addr {
			found = true
		}
	})
	return found
}

// Cores returns the per-CMP core count.
func (e *Engine) Cores() int { return e.cfg.CoresPerCMP }

func (e *Engine) now() sim.Time { return e.kern.Now() }

// homeOf returns the home node of a line.
func (e *Engine) homeOf(addr cache.LineAddr) int {
	return memory.HomeNode(addr, e.cfg.NumCMPs)
}

// MemVersion returns the memory image version of a line (checker).
func (e *Engine) MemVersion(addr cache.LineAddr) uint64 {
	return e.nodes[e.homeOf(addr)].mem.Version(addr)
}

// LatestVersion returns the newest committed write generation of a line.
func (e *Engine) LatestVersion(addr cache.LineAddr) uint64 { return e.lines.latestVersion(addr) }
