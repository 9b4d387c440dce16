// Package workload synthesizes the memory reference streams the paper's
// evaluation runs: the 11 SPLASH-2 applications, SPECjbb 2000 and SPECweb
// 2005 (Section 5.1).
//
// The real benchmarks (and the Simics traces the paper used for the SPEC
// workloads) are unavailable, so each workload is modelled by a generator
// whose knobs are the properties that actually drive the snooping
// algorithms' behaviour: how often a read miss finds a cache supplier, how
// far away it is (uniform around the ring, as the requesting core is
// arbitrary), the read/write mix, and the working-set pressure on caches
// and predictors. The per-application profiles are calibrated to the
// paper's own measurements (Figure 11: SPLASH-2/SPECweb find a supplier
// about once per four misses; SPECjbb almost never does).
package workload

import (
	"fmt"
	"math/rand"

	"flexsnoop/internal/cache"
)

// Op is one step of a core's instruction stream: Compute non-memory
// instructions followed by one memory reference.
type Op struct {
	Compute uint32
	Addr    cache.LineAddr
	Store   bool
}

// Source produces a core's reference stream.
type Source interface {
	// Next returns the next operation; ok=false ends the stream.
	Next() (op Op, ok bool)
}

// Class groups profiles the way the paper reports them.
type Class int

const (
	// Splash2 is the scientific shared-memory suite (32 threads).
	Splash2 Class = iota
	// SPECjbb is the Java middleware workload (little sharing).
	SPECjbb
	// SPECweb is the web-server workload (moderate sharing).
	SPECweb
)

func (c Class) String() string {
	switch c {
	case Splash2:
		return "SPLASH-2"
	case SPECjbb:
		return "SPECjbb"
	case SPECweb:
		return "SPECweb"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Profile parameterizes a synthetic workload.
type Profile struct {
	Name  string
	Class Class

	// ComputeMean is the mean number of non-memory instructions between
	// memory references (geometric).
	ComputeMean float64
	// StoreFrac is the fraction of references that are stores.
	StoreFrac float64

	// PrivateLines is each core's private working set, in cache lines.
	PrivateLines int
	// PrivateHotFrac of private references hit the first PrivateHotLines
	// of the region (temporal locality; real programs re-touch a small
	// hot set, so the cold-miss tail decays quickly).
	PrivateHotLines int
	PrivateHotFrac  float64
	// SharedLines is the size of the globally shared region.
	SharedLines int
	// SharedFrac is the probability a reference targets the shared
	// region; shared data is what creates cache-to-cache transfers.
	SharedFrac float64
	// HotFrac of shared references hit a small hot subset (HotLines),
	// concentrating producer-consumer and lock traffic.
	HotLines int
	HotFrac  float64
	// MigratorySeq makes shared accesses arrive in read-modify-write
	// bursts (migratory sharing) with the given expected burst length;
	// zero disables.
	MigratorySeq int
}

// Validate reports the first profile error.
func (p Profile) Validate() error {
	switch {
	case p.ComputeMean < 0:
		return fmt.Errorf("workload %s: negative compute mean", p.Name)
	case p.PrivateLines < 1:
		return fmt.Errorf("workload %s: need a private working set", p.Name)
	case p.SharedFrac < 0 || p.SharedFrac > 1:
		return fmt.Errorf("workload %s: shared fraction %v out of range", p.Name, p.SharedFrac)
	case p.SharedFrac > 0 && p.SharedLines < 1:
		return fmt.Errorf("workload %s: shared accesses but no shared lines", p.Name)
	case p.StoreFrac < 0 || p.StoreFrac > 1:
		return fmt.Errorf("workload %s: store fraction %v out of range", p.Name, p.StoreFrac)
	case p.HotFrac < 0 || p.HotFrac > 1:
		return fmt.Errorf("workload %s: hot fraction %v out of range", p.Name, p.HotFrac)
	case p.HotFrac > 0 && p.HotLines < 1:
		return fmt.Errorf("workload %s: hot accesses but no hot lines", p.Name)
	case p.PrivateHotFrac < 0 || p.PrivateHotFrac > 1:
		return fmt.Errorf("workload %s: private hot fraction %v out of range", p.Name, p.PrivateHotFrac)
	case p.PrivateHotFrac > 0 && (p.PrivateHotLines < 1 || p.PrivateHotLines > p.PrivateLines):
		return fmt.Errorf("workload %s: private hot lines %d out of range", p.Name, p.PrivateHotLines)
	}
	return nil
}

// Address-space layout: each core's private region and the shared region
// occupy disjoint line-address ranges. Within a region, line indices are
// scattered across a 21-bit span by a Fibonacci hash: real applications
// touch lines spread over many pages, and a dense contiguous layout would
// artificially collapse the upper index fields of the Bloom-filter
// predictors (which consume line-address bits 0-20).
const (
	privateStride = cache.LineAddr(1) << 24
	sharedBase    = cache.LineAddr(1) << 40
	hotBase       = cache.LineAddr(1) << 44

	spreadMult = 2654435761 // Knuth's multiplicative hash constant
	spreadMask = 1<<21 - 1
)

// spread maps a dense line index to a scattered 21-bit line offset. It is
// injective for idx < 2^21 (the multiplier is odd).
func spread(idx int) cache.LineAddr {
	return cache.LineAddr(uint64(idx)*spreadMult) & spreadMask
}

// Generator is a deterministic Source for one core.
type Generator struct {
	p     Profile
	rng   *rand.Rand
	left  uint64
	burst int            // remaining ops of a migratory burst
	baddr cache.LineAddr // burst target
	priv  cache.LineAddr // this core's private region base
}

// NewGenerator builds the stream for one global core index. ops bounds the
// stream length. Streams with the same (profile, core, seed) are
// identical.
func NewGenerator(p Profile, globalCore int, ops uint64, seed int64) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Generator{
		p:    p,
		rng:  rand.New(newRNGSource(seed ^ int64(globalCore+1)*0x5851F42D4C957F2D)),
		left: ops,
		priv: privateStride * cache.LineAddr(globalCore+1),
	}
}

// Next produces the next operation.
func (g *Generator) Next() (Op, bool) {
	if g.left == 0 {
		return Op{}, false
	}
	g.left--

	compute := uint32(0)
	if g.p.ComputeMean > 0 {
		// Geometric gap with the configured mean.
		pStop := 1 / (g.p.ComputeMean + 1)
		for g.rng.Float64() >= pStop && compute < 10*uint32(g.p.ComputeMean)+10 {
			compute++
		}
	}

	// Continue a migratory burst: a read-modify-write sequence on one
	// shared line.
	if g.burst > 0 {
		g.burst--
		store := g.burst == 0 // final access of the burst writes
		return Op{Compute: compute, Addr: g.baddr, Store: store}, true
	}

	if g.rng.Float64() < g.p.SharedFrac {
		addr := g.sharedAddr()
		if g.p.MigratorySeq > 1 && g.rng.Float64() < 0.5 {
			g.burst = 1 + g.rng.Intn(g.p.MigratorySeq)
			g.baddr = addr
			return Op{Compute: compute, Addr: addr, Store: false}, true
		}
		return Op{Compute: compute, Addr: addr, Store: g.rng.Float64() < g.p.StoreFrac}, true
	}

	span := g.p.PrivateLines
	if g.p.PrivateHotFrac > 0 && g.rng.Float64() < g.p.PrivateHotFrac {
		span = g.p.PrivateHotLines
	}
	addr := g.priv + spread(g.rng.Intn(span))
	return Op{Compute: compute, Addr: addr, Store: g.rng.Float64() < g.p.StoreFrac}, true
}

func (g *Generator) sharedAddr() cache.LineAddr {
	if g.p.HotFrac > 0 && g.rng.Float64() < g.p.HotFrac {
		return hotBase + spread(g.rng.Intn(g.p.HotLines))
	}
	return sharedBase + spread(g.rng.Intn(g.p.SharedLines))
}

// SliceSource replays a fixed slice of operations (trace-driven mode).
type SliceSource struct {
	ops []Op
	i   int
}

// NewSliceSource wraps a recorded operation list.
func NewSliceSource(ops []Op) *SliceSource { return &SliceSource{ops: ops} }

// Next returns the next recorded operation.
func (s *SliceSource) Next() (Op, bool) {
	if s.i >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}
