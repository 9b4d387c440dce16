// Package memory models the distributed main memory of the machine: each
// CMP node owns the slice of physical memory it is home for, and serves
// line reads and write-backs over the data network.
//
// It implements the paper's prefetch-on-snoop heuristic (Section 2.2):
// when a read snoop request passes its home node, the home may start a
// DRAM prefetch so the eventual memory read completes with the shorter
// remote round trip of Table 4 (312 vs 710 cycles).
package memory

import (
	"flexsnoop/internal/bus"
	"flexsnoop/internal/cache"
	"flexsnoop/internal/config"
	"flexsnoop/internal/hotmap"
	"flexsnoop/internal/sim"
)

// Per-line flag bits (Controller.flags).
const (
	// memShared is the home's sticky "masterless sharers may exist" bit:
	// set when read-only copies can survive without any global supplier
	// (a demoted concurrent-read grant, or the eviction or downgrade of a
	// shared-capable supplier). While set, memory must not grant
	// Exclusive — a silent write to an E copy could leave those sharers
	// stale. The next completed write clears it: its invalidation sweep
	// removed every copy.
	memShared uint8 = 1 << iota
	// memPrefetch marks a line with a live prefetch-buffer entry; its
	// ready time is in prefReady.
	memPrefetch
)

// Controller is one node's memory controller. Its per-line state lives in
// a struct-of-arrays layout (DESIGN.md §10): one open-addressed index
// from line address to a stable slot, and parallel arrays for the
// written-back version, the prefetch ready time and the flag bits, so the
// read path resolves one hash instead of three map lookups.
type Controller struct {
	node int
	cfg  config.MachineConfig

	// idx maps a line homed here to its slot+1 (0 = never touched).
	idx hotmap.Table[int32]
	// version records the last written-back data generation per line,
	// for coherence-value checking. Lines never written back are at
	// generation 0.
	version []uint64
	// prefReady is the cycle at which a prefetched line's data is ready
	// (valid only while memPrefetch is set).
	prefReady []sim.Time
	flags     []uint8

	prefetchOrder []cache.LineAddr // FIFO for bounded-buffer eviction

	// channel models DRAM channel occupancy: accesses queue behind one
	// another (Table 4: 10.7 GB/s DRAM bandwidth).
	channel bus.Bus

	// Stats.
	Reads         uint64
	Writes        uint64
	Prefetches    uint64
	PrefetchHits  uint64
	PrefetchMiss  uint64 // reads that found no prefetched entry
	PrefetchEvict uint64
}

// NewController builds the controller for one home node. lines bounds
// the distinct lines the whole machine can reference over the run, any
// of which may be homed here; it caps the line index's presize, and the
// index grows on demand.
func NewController(node int, cfg config.MachineConfig, lines int) *Controller {
	return &Controller{
		node: node,
		cfg:  cfg,
		idx:  *hotmap.New[int32](min(1024, lines)),
	}
}

// slot returns the line's slot, allocating one on first touch.
func (c *Controller) slot(addr cache.LineAddr) int {
	p := c.idx.Upsert(uint64(addr))
	if *p == 0 {
		c.version = append(c.version, 0)
		c.prefReady = append(c.prefReady, 0)
		c.flags = append(c.flags, 0)
		*p = int32(len(c.version))
	}
	return int(*p) - 1
}

// find returns the line's slot without allocating one.
func (c *Controller) find(addr cache.LineAddr) (int, bool) {
	s, ok := c.idx.Get(uint64(addr))
	return int(s) - 1, ok
}

// HomeNode returns the home node of a line under the machine's address
// interleaving.
func HomeNode(addr cache.LineAddr, numCMPs int) int {
	return int(addr % cache.LineAddr(numCMPs))
}

// Node returns this controller's node id.
func (c *Controller) Node() int { return c.node }

// NotifySnoop implements the prefetch heuristic: called when a read snoop
// for a line homed here passes this node. The line's data becomes ready
// after the DRAM access time. The buffer is bounded; the oldest entry is
// dropped when full.
func (c *Controller) NotifySnoop(now sim.Time, addr cache.LineAddr) {
	if !c.cfg.PrefetchOnSnoop {
		return
	}
	s := c.slot(addr)
	if c.flags[s]&memPrefetch != 0 {
		return // already prefetched or in flight
	}
	if len(c.prefetchOrder) >= c.cfg.PrefetchBufferEntries {
		old := c.prefetchOrder[0]
		c.prefetchOrder = c.prefetchOrder[1:]
		if os, ok := c.find(old); ok {
			c.flags[os] &^= memPrefetch
		}
		c.PrefetchEvict++
	}
	c.flags[s] |= memPrefetch
	c.prefReady[s] = now + sim.Time(c.cfg.DRAMAccessCycles)
	c.prefetchOrder = append(c.prefetchOrder, addr)
	c.Prefetches++
}

// ReadLatency returns the full round-trip latency a requester at the given
// node observes for a memory read of a line homed here, consuming any
// prefetch-buffer entry for the line. The Table 4 constants are used
// directly — 350 cycles locally, 312 remotely with a completed prefetch,
// 710 remotely without — plus any queueing behind earlier accesses on
// this controller's DRAM channel.
func (c *Controller) ReadLatency(now sim.Time, addr cache.LineAddr, requester int) sim.Time {
	c.Reads++
	queue := c.channel.Reserve(now, sim.Time(c.cfg.DRAMOccupancyCycles)) - now
	var ready sim.Time
	prefetched := false
	if s, ok := c.find(addr); ok && c.flags[s]&memPrefetch != 0 {
		prefetched = true
		ready = c.prefReady[s]
		c.flags[s] &^= memPrefetch
		for i, a := range c.prefetchOrder {
			if a == addr {
				c.prefetchOrder = append(c.prefetchOrder[:i], c.prefetchOrder[i+1:]...)
				break
			}
		}
	}
	if requester == c.node {
		return sim.Time(c.cfg.MemLocalRTCycles) + queue
	}
	if prefetched {
		c.PrefetchHits++
		rt := sim.Time(c.cfg.MemRemoteRTPrefetchCycles) + queue
		// If the prefetch has not finished yet, the residual DRAM time
		// adds to the round trip.
		if ready > now {
			rt += ready - now
		}
		return rt
	}
	c.PrefetchMiss++
	return sim.Time(c.cfg.MemRemoteRTNoPrefetchCycle) + queue
}

// QueueCycles reports total cycles accesses waited for the DRAM channel.
func (c *Controller) QueueCycles() uint64 { return c.channel.WaitCycles }

// BusyCycles reports total cycles the DRAM channel was reserved — the
// numerator of this controller's occupancy fraction over a window.
func (c *Controller) BusyCycles() uint64 { return c.channel.BusyCycles }

// MarkShared sets the line's masterless-sharers bit: memory may not grant
// Exclusive until a write's invalidation sweep clears it.
func (c *Controller) MarkShared(addr cache.LineAddr) { c.flags[c.slot(addr)] |= memShared }

// ClearShared clears the bit after a completed write made the writer the
// line's only holder.
func (c *Controller) ClearShared(addr cache.LineAddr) {
	if s, ok := c.find(addr); ok {
		c.flags[s] &^= memShared
	}
}

// SharedMarked reports whether masterless sharers may exist.
func (c *Controller) SharedMarked(addr cache.LineAddr) bool {
	s, ok := c.find(addr)
	return ok && c.flags[s]&memShared != 0
}

// Version returns the line's last written-back data generation.
func (c *Controller) Version(addr cache.LineAddr) uint64 {
	if s, ok := c.find(addr); ok {
		return c.version[s]
	}
	return 0
}

// WriteBack records a dirty-line write-back of the given data generation.
// Write-backs are posted (no one waits on them) but still occupy the DRAM
// channel.
func (c *Controller) WriteBack(addr cache.LineAddr, version uint64) {
	c.Writes++
	if s := c.slot(addr); version > c.version[s] {
		c.version[s] = version
	}
}
