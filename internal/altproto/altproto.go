// Package altproto implements the two alternative coherence approaches the
// paper positions embedded-ring snooping against (Section 2.1): a
// directory-based protocol and a snoopy protocol over a shared broadcast
// bus. They exist so the paper's qualitative comparisons — the directory's
// "time-consuming indirection in all transactions" and the bus's limited
// scalability — can be measured rather than asserted.
//
// Both engines implement the same processor-facing interface as the ring
// engine (package protocol), so the same timing cores and workload
// generators drive all three. The protocols are deliberately simpler than
// the ring's (plain MESI at core granularity, no local-master refinement):
// they are baselines, not contributions.
package altproto

import (
	"fmt"
	"math"

	"flexsnoop/internal/cache"
	"flexsnoop/internal/config"
	"flexsnoop/internal/interconnect"
	"flexsnoop/internal/memory"
	"flexsnoop/internal/protocol"
	"flexsnoop/internal/sim"
)

// Stats are the counters shared by both alternative engines, kept
// comparable with the ring engine's.
type Stats struct {
	Loads  uint64
	Stores uint64

	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64

	// Transactions that left the core's caches.
	ReadRequests  uint64
	WriteRequests uint64

	// Messages on the data network (directory: every hop of the
	// request/forward/invalidate/ack/data protocol; bus: data transfers).
	NOCMessages uint64
	// BusTransactions and BusWaitCycles measure broadcast-bus pressure.
	BusTransactions uint64
	BusWaitCycles   uint64
	// SnoopOps: cache tag lookups caused by coherence actions at other
	// cores (bus: every core on every transaction; directory: owners and
	// invalidated sharers only).
	SnoopOps uint64
	// Indirections: transactions that needed a third hop through the
	// directory (home -> owner forwarding).
	Indirections uint64

	MemReads  uint64
	MemWrites uint64

	ReadMissCycles uint64
	ReadMissCount  uint64
}

// AvgReadMissLatency returns the mean off-cache read-miss latency.
func (s Stats) AvgReadMissLatency() float64 {
	if s.ReadMissCount == 0 {
		return 0
	}
	return float64(s.ReadMissCycles) / float64(s.ReadMissCount)
}

// client is one core's private cache hierarchy, shared by both engines.
type client struct {
	l1, l2 *cache.Array
}

// base carries the machinery common to both engines.
type base struct {
	cfg     config.MachineConfig
	kern    *sim.Kernel
	torus   *interconnect.Torus
	mems    []*memory.Controller
	clients []client
	stats   Stats

	// versions is the global write-generation counter (validation).
	versions map[cache.LineAddr]uint64
}

func newBase(kern *sim.Kernel, cfg config.MachineConfig) (*base, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &base{
		cfg:  cfg,
		kern: kern,
		torus: interconnect.NewTorus(cfg.TorusWidth, cfg.TorusHeight,
			cfg.TorusHopCycles, cfg.DataSerializationCycles, cfg.NumCMPs),
		versions: make(map[cache.LineAddr]uint64),
	}
	// The engines are built before their workload is known, so no line
	// bound caps the caches' or controllers' initial sizes.
	for n := 0; n < cfg.NumCMPs; n++ {
		b.mems = append(b.mems, memory.NewController(n, cfg, math.MaxInt32))
	}
	for i := 0; i < cfg.TotalCores(); i++ {
		b.clients = append(b.clients, client{
			l1: cache.NewArray(cfg.L1, math.MaxInt32),
			l2: cache.NewArray(cfg.L2, math.MaxInt32),
		})
	}
	return b, nil
}

// core indexing: global core g lives on node g / CoresPerCMP.
func (b *base) nodeOf(g int) int { return g / b.cfg.CoresPerCMP }

func (b *base) global(node, core int) int { return node*b.cfg.CoresPerCMP + core }

func (b *base) homeOf(addr cache.LineAddr) int {
	return memory.HomeNode(addr, b.cfg.NumCMPs)
}

func (b *base) nextVersion(addr cache.LineAddr) uint64 {
	b.versions[addr]++
	return b.versions[addr]
}

// send models one message on the data network and returns its arrival.
func (b *base) send(from, to int) sim.Time {
	b.stats.NOCMessages++
	return b.kern.Now() + b.torus.Latency(b.kern.Now(), from, to)
}

// l2Hit performs the common L1/L2 hit path; returns nil when the reference
// must go to the protocol.
func (b *base) l2Hit(g int, kind protocol.AccessKind, addr cache.LineAddr) (line *cache.Line, hitL1 bool) {
	c := b.clients[g]
	if kind == protocol.Load {
		if c.l1.Access(addr) != nil {
			return nil, true
		}
	} else {
		c.l1.Access(addr)
	}
	return c.l2.Access(addr), false
}

// install puts a line into a client's caches, writing back dirty victims.
func (b *base) install(g int, addr cache.LineAddr, st cache.State, version uint64) {
	c := b.clients[g]
	victim, evicted := c.l2.Insert(addr, st, version)
	if evicted {
		c.l1.Invalidate(victim.Addr)
		if victim.State.DirtyData() {
			b.mems[b.homeOf(victim.Addr)].WriteBack(victim.Addr, victim.Version)
			b.stats.MemWrites++
		}
	}
	c.l1.Insert(addr, cache.Shared, version)
}

// invalidate removes a line from a client, returning what was held.
func (b *base) invalidate(g int, addr cache.LineAddr) (cache.Line, bool) {
	c := b.clients[g]
	c.l1.Invalidate(addr)
	return c.l2.Invalidate(addr)
}

// LineState exposes a client's state for a line (tests).
func (b *base) LineState(g int, addr cache.LineAddr) cache.State {
	if l := b.clients[g].l2.Lookup(addr); l != nil {
		return l.State
	}
	return cache.Invalid
}

// LatestVersion returns the last committed write generation (tests).
func (b *base) LatestVersion(addr cache.LineAddr) uint64 { return b.versions[addr] }

// checkSWMR verifies the single-writer/multi-reader invariant and version
// agreement across all clients (tests).
func (b *base) checkSWMR() error {
	type holder struct {
		g int
		l cache.Line
	}
	byAddr := map[cache.LineAddr][]holder{}
	for g := range b.clients {
		b.clients[g].l2.ForEach(func(l cache.Line) {
			byAddr[l.Addr] = append(byAddr[l.Addr], holder{g, l})
		})
	}
	for addr, hs := range byAddr {
		dirty := 0
		for _, h := range hs {
			if h.l.State.DirtyData() || h.l.State == cache.Exclusive {
				dirty++
			}
			if h.l.Version != hs[0].l.Version {
				return fmt.Errorf("altproto: line %#x version split %d vs %d",
					addr, h.l.Version, hs[0].l.Version)
			}
		}
		if dirty > 0 && len(hs) > 1 {
			return fmt.Errorf("altproto: line %#x has %d exclusive holders among %d copies",
				addr, dirty, len(hs))
		}
		if hs[0].l.Version != b.versions[addr] {
			return fmt.Errorf("altproto: line %#x cached at v%d, latest v%d",
				addr, hs[0].l.Version, b.versions[addr])
		}
	}
	return nil
}
