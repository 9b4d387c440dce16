// Package config defines the architectural and experimental configuration
// for the flexible-snooping simulator. Defaults reproduce Table 4 of the
// paper (8 CMPs of 4 cores at 6 GHz, embedded ring with 39-cycle links,
// 55-cycle CMP bus access + L2 snoop, 2-D torus data network).
package config

import (
	"errors"
	"fmt"
)

// Sentinel errors for the package's two failure classes; match with
// errors.Is. Every ParseAlgorithm and Validate failure wraps one of them.
var (
	// ErrUnknownAlgorithm is returned (wrapped) for unrecognized
	// algorithm names.
	ErrUnknownAlgorithm = errors.New("config: unknown algorithm")
	// ErrBadConfig is returned (wrapped) for invalid machine
	// configurations.
	ErrBadConfig = errors.New("config: invalid configuration")
)

// Algorithm identifies one of the snooping algorithms studied in the paper.
type Algorithm int

// The seven algorithms of Sections 3-4, plus the dynamic extension the
// paper envisions in Section 6.1.5.
const (
	// Lazy snoops at every node before forwarding, until the supplier is
	// found (Section 3.1; the baseline the figures normalise to).
	Lazy Algorithm = iota
	// Eager forwards immediately at every node and snoops in parallel
	// (Barroso & Dubois; Section 3.1).
	Eager
	// Oracle snoops only at the supplier node (Section 3.1).
	Oracle
	// Subset uses a no-false-positive predictor: SnoopThenForward on a
	// positive prediction, ForwardThenSnoop on a negative one (Table 3).
	Subset
	// SupersetCon uses a no-false-negative predictor conservatively:
	// SnoopThenForward on positive, Forward on negative (Table 3).
	SupersetCon
	// SupersetAgg uses a no-false-negative predictor aggressively:
	// ForwardThenSnoop on positive, Forward on negative (Table 3).
	SupersetAgg
	// Exact uses a predictor with neither false positives nor false
	// negatives, maintained by downgrading lines evicted from the
	// predictor (Section 4.3.3).
	Exact
	// DynamicSuperset switches between the SupersetAgg and SupersetCon
	// positive-prediction actions at run time under an energy budget.
	// This is the adaptive system the paper envisions in Section 6.1.5.
	DynamicSuperset

	numAlgorithms
)

// Algorithms lists every static algorithm in paper order (excludes the
// DynamicSuperset extension).
func Algorithms() []Algorithm {
	return []Algorithm{Lazy, Eager, Oracle, Subset, SupersetCon, SupersetAgg, Exact}
}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Lazy:
		return "Lazy"
	case Eager:
		return "Eager"
	case Oracle:
		return "Oracle"
	case Subset:
		return "Subset"
	case SupersetCon:
		return "SupersetCon"
	case SupersetAgg:
		return "SupersetAgg"
	case Exact:
		return "Exact"
	case DynamicSuperset:
		return "DynamicSuperset"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a (case-sensitive) algorithm name to its identifier.
func ParseAlgorithm(name string) (Algorithm, error) {
	for a := Algorithm(0); a < numAlgorithms; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("%w %q", ErrUnknownAlgorithm, name)
}

// DecouplesWrites reports whether the algorithm splits write snoops into a
// request and a reply so nodes invalidate in parallel (Section 5.3: the
// Eager class decouples, the Lazy class does not).
func (a Algorithm) DecouplesWrites() bool {
	switch a {
	case Eager, Subset, SupersetAgg, Oracle, DynamicSuperset:
		return true
	default:
		return false
	}
}

// UsesPredictor reports whether the algorithm consults a supplier predictor.
func (a Algorithm) UsesPredictor() bool {
	switch a {
	case Subset, SupersetCon, SupersetAgg, Exact, DynamicSuperset:
		return true
	default:
		return false
	}
}

// PredictorKind selects a supplier-predictor implementation (Section 4.3).
type PredictorKind int

const (
	// PredictorNone is used by Lazy and Eager, which never predict.
	PredictorNone PredictorKind = iota
	// PredictorSubset is a set-associative cache of supplier-line
	// addresses: no false positives, possible false negatives.
	PredictorSubset
	// PredictorSuperset is a counting Bloom filter plus an optional
	// JETTY-style exclude cache: no false negatives, possible false
	// positives.
	PredictorSuperset
	// PredictorExact is the Subset structure made exact by downgrading
	// lines whose predictor entries are evicted.
	PredictorExact
	// PredictorPerfect peeks at the actual cache state (Oracle).
	PredictorPerfect
)

func (k PredictorKind) String() string {
	switch k {
	case PredictorNone:
		return "none"
	case PredictorSubset:
		return "subset"
	case PredictorSuperset:
		return "superset"
	case PredictorExact:
		return "exact"
	case PredictorPerfect:
		return "perfect"
	default:
		return fmt.Sprintf("PredictorKind(%d)", int(k))
	}
}

// PredictorConfig sizes a supplier predictor. The named presets in this
// package reproduce the configurations in Table 4 and Section 5.2.
type PredictorConfig struct {
	Kind PredictorKind

	// Name is the Section 5.2 label (Sub2k, SupCy2k, ...). Informational.
	Name string

	// Entries and Assoc size the subset/exact predictor cache, or the
	// exclude cache for superset predictors.
	Entries int
	Assoc   int

	// BloomFieldBits gives the bit width of each Bloom-filter index field
	// (superset predictors only). Table 4: the "y" filter is 10,4,7 and
	// the "n" filter is 9,9,6.
	BloomFieldBits []uint

	// ExcludeCache enables the JETTY-style exclude cache that suppresses
	// repeated false positives (superset predictors only).
	ExcludeCache bool

	// AccessCycles is the predictor lookup latency in processor cycles.
	AccessCycles int
}

// Geometry limits of every cache and predictor table. The cache arrays
// (internal/cache) keep one 32-bit word per set: 8 bits count the set's
// valid lines and 24 bits locate the set's storage.
const (
	// MaxAssoc is the largest associativity a table may have.
	MaxAssoc = 255
	// MaxTableLines is the most lines (sets × ways) a table may hold.
	MaxTableLines = 1<<24 - 1
)

// Validate reports the first error in the predictor's geometry, wrapping
// ErrBadConfig. It checks only the fields the predictor's kind uses:
// Entries and Assoc for the subset and exact tables and for an enabled
// exclude cache, BloomFieldBits for superset predictors.
func (p PredictorConfig) Validate() error {
	switch p.Kind {
	case PredictorNone, PredictorPerfect:
		return nil
	case PredictorSubset, PredictorExact:
		return validateTable("predictor table", p.Entries, p.Assoc)
	case PredictorSuperset:
		if len(p.BloomFieldBits) == 0 {
			return fmt.Errorf("%w: superset predictor needs at least one Bloom field", ErrBadConfig)
		}
		for _, bits := range p.BloomFieldBits {
			if bits == 0 || bits > 20 {
				return fmt.Errorf("%w: Bloom field width %d is outside 1..20", ErrBadConfig, bits)
			}
		}
		if p.ExcludeCache {
			return validateTable("exclude cache", p.Entries, p.Assoc)
		}
		return nil
	}
	return fmt.Errorf("%w: unknown predictor kind %v", ErrBadConfig, p.Kind)
}

// validateTable checks a predictor table of entries lines in assoc-way
// sets.
func validateTable(what string, entries, assoc int) error {
	switch {
	case entries <= 0 || assoc <= 0 || entries%assoc != 0:
		return fmt.Errorf("%w: %s of %d entries cannot be split into %d-way sets", ErrBadConfig, what, entries, assoc)
	case assoc > MaxAssoc:
		return fmt.Errorf("%w: %s associativity %d is above %d", ErrBadConfig, what, assoc, MaxAssoc)
	case entries > MaxTableLines:
		return fmt.Errorf("%w: %s of %d entries is above %d", ErrBadConfig, what, entries, MaxTableLines)
	case (entries/assoc)&(entries/assoc-1) != 0:
		return fmt.Errorf("%w: %s set count %d is not a power of two", ErrBadConfig, what, entries/assoc)
	}
	return nil
}

// Predictor presets from Section 5.2 / Table 4.
func Sub512() PredictorConfig {
	return PredictorConfig{Kind: PredictorSubset, Name: "Sub512", Entries: 512, Assoc: 8, AccessCycles: 2}
}
func Sub2k() PredictorConfig {
	return PredictorConfig{Kind: PredictorSubset, Name: "Sub2k", Entries: 2048, Assoc: 8, AccessCycles: 2}
}
func Sub8k() PredictorConfig {
	return PredictorConfig{Kind: PredictorSubset, Name: "Sub8k", Entries: 8192, Assoc: 8, AccessCycles: 3}
}

// SupY512 is the "y" Bloom filter (fields 10,4,7 bits) with a 512-entry
// exclude cache.
func SupY512() PredictorConfig {
	return PredictorConfig{Kind: PredictorSuperset, Name: "Supy512", Entries: 512, Assoc: 8,
		BloomFieldBits: []uint{10, 4, 7}, ExcludeCache: true, AccessCycles: 2}
}

// SupY2k is the "y" Bloom filter with a 2K-entry exclude cache (the main
// configuration used in Section 6.1).
func SupY2k() PredictorConfig {
	return PredictorConfig{Kind: PredictorSuperset, Name: "Supy2k", Entries: 2048, Assoc: 8,
		BloomFieldBits: []uint{10, 4, 7}, ExcludeCache: true, AccessCycles: 2}
}

// SupN2k is the "n" Bloom filter (fields 9,9,6 bits) with a 2K-entry
// exclude cache.
func SupN2k() PredictorConfig {
	return PredictorConfig{Kind: PredictorSuperset, Name: "Supn2k", Entries: 2048, Assoc: 8,
		BloomFieldBits: []uint{9, 9, 6}, ExcludeCache: true, AccessCycles: 2}
}

func Exa512() PredictorConfig {
	return PredictorConfig{Kind: PredictorExact, Name: "Exa512", Entries: 512, Assoc: 8, AccessCycles: 2}
}
func Exa2k() PredictorConfig {
	return PredictorConfig{Kind: PredictorExact, Name: "Exa2k", Entries: 2048, Assoc: 8, AccessCycles: 2}
}
func Exa8k() PredictorConfig {
	return PredictorConfig{Kind: PredictorExact, Name: "Exa8k", Entries: 8192, Assoc: 8, AccessCycles: 3}
}

// Perfect returns the oracle predictor configuration.
func Perfect() PredictorConfig {
	return PredictorConfig{Kind: PredictorPerfect, Name: "Perfect"}
}

// NoPredictor returns the empty predictor configuration for Lazy/Eager.
func NoPredictor() PredictorConfig {
	return PredictorConfig{Kind: PredictorNone, Name: "None"}
}

// DefaultPredictorFor returns the Section 6.1 predictor for an algorithm:
// Sub2k, SupCy2k/SupAy2k, Exa2k, Perfect for Oracle, none for Lazy/Eager.
func DefaultPredictorFor(a Algorithm) PredictorConfig {
	switch a {
	case Subset:
		return Sub2k()
	case SupersetCon, SupersetAgg, DynamicSuperset:
		return SupY2k()
	case Exact:
		return Exa2k()
	case Oracle:
		return Perfect()
	default:
		return NoPredictor()
	}
}

// CacheConfig sizes one cache level.
type CacheConfig struct {
	SizeBytes int
	Assoc     int
	LineBytes int
	// RoundTripCycles is the hit round-trip latency seen by the core.
	RoundTripCycles int
}

// Sets returns the number of sets implied by the geometry, or 0 for a
// degenerate configuration.
func (c CacheConfig) Sets() int {
	if c.LineBytes <= 0 || c.Assoc <= 0 {
		return 0
	}
	return c.SizeBytes / c.LineBytes / c.Assoc
}

// MachineConfig holds every architectural parameter of Table 4.
type MachineConfig struct {
	NumCMPs     int // chips on the ring (Table 4: 8)
	CoresPerCMP int // 4 for SPLASH-2 runs, 1 for the SPEC runs

	L1 CacheConfig
	L2 CacheConfig

	// NumRings is how many unidirectional rings are embedded in the
	// network; snoop messages are mapped to rings by line address
	// (Section 2.2; the evaluation embeds two).
	NumRings int

	// RingLinkCycles is the CMP-to-CMP snoop-message latency (39 cycles).
	RingLinkCycles int

	// CMPSnoopCycles is the ring-message cost of accessing the CMP bus
	// and snooping all on-chip L2s (55 cycles, Section 5.1).
	CMPSnoopCycles int

	// IntraCMPBusCycles is the round trip to another L2 on the same chip
	// (55 cycles).
	IntraCMPBusCycles int

	// BusOccupancyCycles is how long one operation occupies the shared
	// intra-CMP bus before the next may start. The bus is pipelined
	// (Table 4: 64 GB/s), so occupancy is much shorter than the 55-cycle
	// latency.
	BusOccupancyCycles int

	// TorusWidth x TorusHeight is the 2-D torus carrying data messages.
	TorusWidth  int
	TorusHeight int
	// TorusHopCycles is the per-hop latency of a data message.
	TorusHopCycles int
	// DataSerializationCycles is the occupancy added by a 64-byte line
	// transfer on a torus link.
	DataSerializationCycles int

	// Memory round trips (Table 4): local, and remote with/without the
	// prefetch-on-snoop heuristic.
	MemLocalRTCycles           int
	MemRemoteRTPrefetchCycles  int
	MemRemoteRTNoPrefetchCycle int
	// DRAMAccessCycles is the raw DRAM array access time (50 ns at 6 GHz).
	DRAMAccessCycles int
	// DRAMOccupancyCycles is how long one line transfer occupies the
	// DRAM channel (64 B at 10.7 GB/s is ~6 ns = 36 cycles at 6 GHz);
	// back-to-back accesses to one controller queue behind it.
	DRAMOccupancyCycles int
	// PrefetchOnSnoop enables the heuristic that starts a DRAM prefetch
	// when a read snoop passes its home node (Section 2.2).
	PrefetchOnSnoop bool

	// DisableLocalMaster removes the S_L (Local Master) qualifier from
	// the protocol: ring-supplied reads install plain S and cannot later
	// supply CMP-local readers, so those reads go to the ring instead.
	// The paper introduces S_L precisely to avoid this (Section 2.2);
	// the ablation quantifies its benefit.
	DisableLocalMaster bool
	// PrefetchBufferEntries bounds the per-node prefetch buffer.
	PrefetchBufferEntries int

	// WriteBufferEntries is the per-core store buffer depth; the core
	// stalls on a write only when the buffer is full.
	WriteBufferEntries int

	// MaxOutstandingLoads is the per-core memory-level parallelism: the
	// number of load misses the core keeps issuing past, approximating
	// the paper's out-of-order cores (Table 4: 176-entry ROB, 64-entry
	// load queue). 1 degrades to an in-order core with blocking loads.
	MaxOutstandingLoads int

	// MaxTransactionsPerNode bounds concurrently outstanding ring
	// transactions issued by one CMP gateway.
	MaxTransactionsPerNode int

	// RetryBackoffCycles delays reissue of a squashed transaction.
	RetryBackoffCycles int
}

// DefaultMachine returns the Table 4 machine: 8 CMPs x 4 cores at 6 GHz.
func DefaultMachine() MachineConfig {
	return MachineConfig{
		NumCMPs:     8,
		CoresPerCMP: 4,
		L1: CacheConfig{
			SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, RoundTripCycles: 2,
		},
		L2: CacheConfig{
			SizeBytes: 512 << 10, Assoc: 8, LineBytes: 64, RoundTripCycles: 11,
		},
		NumRings:                   2,
		RingLinkCycles:             39,
		CMPSnoopCycles:             55,
		IntraCMPBusCycles:          55,
		BusOccupancyCycles:         4,
		TorusWidth:                 4,
		TorusHeight:                2,
		TorusHopCycles:             25,
		DataSerializationCycles:    12,
		MemLocalRTCycles:           350,
		MemRemoteRTPrefetchCycles:  312,
		MemRemoteRTNoPrefetchCycle: 710,
		DRAMAccessCycles:           300,
		DRAMOccupancyCycles:        36,
		PrefetchOnSnoop:            true,
		PrefetchBufferEntries:      16,
		WriteBufferEntries:         8,
		MaxOutstandingLoads:        2,
		MaxTransactionsPerNode:     16,
		RetryBackoffCycles:         64,
	}
}

// Validate reports the first configuration error found.
func (m MachineConfig) Validate() error {
	switch {
	case m.NumCMPs < 2:
		return fmt.Errorf("%w: need at least 2 CMPs for a ring", ErrBadConfig)
	case m.CoresPerCMP < 1:
		return fmt.Errorf("%w: need at least 1 core per CMP", ErrBadConfig)
	case m.NumRings < 1:
		return fmt.Errorf("%w: need at least 1 embedded ring", ErrBadConfig)
	case m.L2.LineBytes == 0 || m.L2.LineBytes&(m.L2.LineBytes-1) != 0:
		return fmt.Errorf("%w: L2 line size %d is not a power of two", ErrBadConfig, m.L2.LineBytes)
	case m.L1.LineBytes != m.L2.LineBytes:
		return fmt.Errorf("%w: L1 and L2 line sizes must match", ErrBadConfig)
	case m.L2.Sets() == 0 || m.L2.Sets()&(m.L2.Sets()-1) != 0:
		return fmt.Errorf("%w: L2 set count %d is not a power of two", ErrBadConfig, m.L2.Sets())
	case m.L1.Sets() == 0 || m.L1.Sets()&(m.L1.Sets()-1) != 0:
		return fmt.Errorf("%w: L1 set count %d is not a power of two", ErrBadConfig, m.L1.Sets())
	case m.L1.Assoc > MaxAssoc || m.L2.Assoc > MaxAssoc:
		return fmt.Errorf("%w: cache associativity (L1 %d, L2 %d) is above %d", ErrBadConfig, m.L1.Assoc, m.L2.Assoc, MaxAssoc)
	case m.L1.Sets()*m.L1.Assoc > MaxTableLines || m.L2.Sets()*m.L2.Assoc > MaxTableLines:
		return fmt.Errorf("%w: a cache holds more than %d lines", ErrBadConfig, MaxTableLines)
	case m.TorusWidth*m.TorusHeight < m.NumCMPs:
		return fmt.Errorf("%w: %dx%d torus cannot place %d CMPs", ErrBadConfig,
			m.TorusWidth, m.TorusHeight, m.NumCMPs)
	case m.RingLinkCycles <= 0 || m.CMPSnoopCycles <= 0:
		return fmt.Errorf("%w: ring latencies must be positive", ErrBadConfig)
	case m.BusOccupancyCycles <= 0:
		return fmt.Errorf("%w: bus occupancy must be positive", ErrBadConfig)
	case m.WriteBufferEntries < 1:
		return fmt.Errorf("%w: write buffer needs at least 1 entry", ErrBadConfig)
	case m.MaxOutstandingLoads < 1:
		return fmt.Errorf("%w: need at least 1 outstanding load", ErrBadConfig)
	case m.MaxTransactionsPerNode < 1:
		return fmt.Errorf("%w: need at least 1 outstanding transaction per node", ErrBadConfig)
	case m.RetryBackoffCycles < 1:
		// The squash/retry and timeout/retransmit paths both scale this
		// value; zero would make every retry re-collide in the same cycle.
		return fmt.Errorf("%w: retry backoff must be positive", ErrBadConfig)
	}
	return nil
}

// LineShift returns log2 of the coherence line size.
func (m MachineConfig) LineShift() uint {
	s := uint(0)
	for v := m.L2.LineBytes; v > 1; v >>= 1 {
		s++
	}
	return s
}

// TotalCores returns NumCMPs * CoresPerCMP.
func (m MachineConfig) TotalCores() int { return m.NumCMPs * m.CoresPerCMP }
