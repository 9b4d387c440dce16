// Package checker verifies the coherence invariants of a running protocol
// engine: the Figure 2(b) state-compatibility matrix, global supplier
// uniqueness, gateway supplier-index consistency, and the data-value
// invariant that every cached copy of a line carries the latest committed
// write generation.
//
// The checker is test/debug infrastructure: it inspects global state the
// hardware never sees at once.
package checker

import (
	"fmt"
	"slices"

	"flexsnoop/internal/cache"
	"flexsnoop/internal/protocol"
	"flexsnoop/internal/sim"
)

// copyInfo locates one cached copy.
type copyInfo struct {
	node, core int
	line       cache.Line
}

// Checker runs the invariants against one engine. It keeps its gather
// slice between calls: a run checks its engine repeatedly (during the
// run, see Arm, and once drained), and regrowing the slice each sweep was
// a measurable share of simulation allocations. A Checker is not safe for
// concurrent use; each run owns its own, so concurrent runs never
// contend.
type Checker struct {
	e    *protocol.Engine
	all  []copyInfo
	mark uint64   // Arm: multiples of the retire cadence passed so far
	next sim.Time // Arm: the next cycle mark
}

// New returns a checker for an engine.
func New(e *protocol.Engine) *Checker { return &Checker{e: e} }

// Arm is the one in-run check. Chained onto the kernel's EndCycle hook
// after the engine's transmit flush, it runs Check at the first cycle end
// at or after each mark of either cadence: each multiple of `retires`
// that Engine.Retires passes, and every `cycles` cycles from arming (zero
// turns a cadence off). It only reads, so it moves no event. A violation
// fails the run through Engine.Fail, which stops the kernel at that cycle.
// A Checker is armed at most once.
func (c *Checker) Arm(kern *sim.Kernel, retires uint64, cycles sim.Time) {
	if retires == 0 && cycles == 0 {
		return
	}
	c.mark, c.next = c.e.Retires()/max(retires, 1), kern.Now()+cycles
	prev := kern.EndCycle
	kern.EndCycle = func(now sim.Time) {
		if prev != nil {
			prev(now)
		}
		due := false
		if retires > 0 && c.e.Retires()/retires > c.mark {
			due, c.mark = true, c.e.Retires()/retires
		}
		if cycles > 0 && now >= c.next {
			due, c.next = true, now+cycles
		}
		if !due {
			return
		}
		if err := c.Check(); err != nil {
			c.e.Fail(fmt.Errorf("checker: check at cycle %d: %w", now, err))
		}
	}
}

// Check runs every invariant against the engine, returning the first
// violation found. Arm runs this on the simulation hot path, so copies
// are gathered into one flat slice and grouped by sorting — no map of
// per-line slices — which also makes the reported violation
// deterministic (lowest address wins) where map iteration order would
// have been random.
func (c *Checker) Check() error {
	e := c.e
	all := slices.Grow(c.all[:0], e.CachedLines())
	suppliers := 0
	e.ForEachLine(func(node, core int, l cache.Line) {
		all = append(all, copyInfo{node, core, l})
		if l.State.GlobalSupplier() {
			suppliers++
		}
	})
	c.all = all
	slices.SortFunc(all, func(a, b copyInfo) int {
		if a.line.Addr != b.line.Addr {
			if a.line.Addr < b.line.Addr {
				return -1
			}
			return 1
		}
		if a.node != b.node {
			return a.node - b.node
		}
		return a.core - b.core
	})

	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].line.Addr == all[i].line.Addr {
			j++
		}
		if err := checkLine(e, all[i].line.Addr, all[i:j]); err != nil {
			return err
		}
		i = j
	}

	// Gateway supplier indexes must not list lines with no supplier copy.
	// The per-line pass found at most one supplier per line, each in its
	// node's index, so a stale entry exists exactly when the indexes hold
	// more entries than there are suppliers; only then are they searched
	// for it.
	indexed := 0
	e.ForEachSupplierIndex(func(int, cache.LineAddr) { indexed++ })
	if indexed == suppliers {
		return nil
	}
	var idxErr error
	e.ForEachSupplierIndex(func(n int, addr cache.LineAddr) {
		if idxErr == nil && !holdsSupplier(e, n, addr) {
			idxErr = fmt.Errorf("node %d indexes %#x as supplier but holds no supplier copy", n, addr)
		}
	})
	return idxErr
}

// holdsSupplier reports whether a core of node n holds the line in a
// global supplier state.
func holdsSupplier(e *protocol.Engine, n int, addr cache.LineAddr) bool {
	for core := 0; core < e.Cores(); core++ {
		if e.LineState(n, core, addr).GlobalSupplier() {
			return true
		}
	}
	return false
}

func checkLine(e *protocol.Engine, addr cache.LineAddr, copies []copyInfo) error {
	// Pairwise state compatibility (Figure 2(b)).
	for i := 0; i < len(copies); i++ {
		for j := i + 1; j < len(copies); j++ {
			a, b := copies[i], copies[j]
			if !cache.Compatible(a.line.State, b.line.State, a.node == b.node) {
				return fmt.Errorf("line %#x: incompatible states %v@(n%d,c%d) and %v@(n%d,c%d)",
					addr, a.line.State, a.node, a.core, b.line.State, b.node, b.core)
			}
		}
	}

	// Global supplier uniqueness and index consistency.
	suppliers := 0
	for _, c := range copies {
		if c.line.State.GlobalSupplier() {
			suppliers++
			if !e.SupplierIndexed(c.node, addr) {
				return fmt.Errorf("line %#x: supplier %v@(n%d,c%d) missing from gateway index",
					addr, c.line.State, c.node, c.core)
			}
		}
	}
	if suppliers > 1 {
		return fmt.Errorf("line %#x: %d global suppliers", addr, suppliers)
	}

	// Data-value invariant: every coexisting copy carries the same write
	// generation, and it is the latest committed one.
	latest := e.LatestVersion(addr)
	for _, c := range copies {
		if c.line.Version != copies[0].line.Version {
			return fmt.Errorf("line %#x: divergent versions %v/%d@(n%d,c%d) vs %v/%d@(n%d,c%d), latest=%d, inflight=%v",
				addr, c.line.State, c.line.Version, c.node, c.core,
				copies[0].line.State, copies[0].line.Version, copies[0].node, copies[0].core,
				latest, e.HasActiveTxn(addr))
		}
	}
	if len(copies) > 0 && copies[0].line.Version != latest {
		return fmt.Errorf("line %#x: cached version %d but latest committed write is %d",
			addr, copies[0].line.Version, latest)
	}

	// With no cached copy and no transaction in flight, memory must hold
	// the latest data (no writes may be lost).
	if len(copies) == 0 && !e.HasActiveTxn(addr) {
		if mv := e.MemVersion(addr); mv != latest {
			return fmt.Errorf("line %#x: uncached, memory at version %d but latest write is %d (lost write)",
				addr, mv, latest)
		}
	}
	return nil
}

// CheckDrained verifies post-run cleanliness: no live transactions, no
// leaked per-node message state, and all line invariants.
func (c *Checker) CheckDrained() error {
	if n := c.e.OutstandingTxns(); n != 0 {
		return fmt.Errorf("%d transactions still outstanding after drain", n)
	}
	if n := c.e.RingStateCount(); n != 0 {
		return fmt.Errorf("%d ring states leaked after drain", n)
	}
	return c.Check()
}
