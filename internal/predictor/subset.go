package predictor

import (
	"fmt"

	"flexsnoop/internal/cache"
	"flexsnoop/internal/config"
)

// SubsetPredictor keeps a strict subset of the CMP's supplier lines in a
// set-associative address cache (Section 4.3.1, Figure 5(a)). Conflict
// evictions silently drop entries, producing false negatives; Remove on
// eviction/invalidation guarantees there are never false positives.
type SubsetPredictor struct {
	table *cache.TagArray
	stats Stats
}

// NewSubset builds a subset predictor with the given entry count and
// associativity (Table 4: 512/2K/8K entries, 8-way). lines bounds the
// distinct supplier lines it will be trained with; it sizes only the
// table's first allocation.
func NewSubset(entries, assoc, lines int) *SubsetPredictor {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		panic(fmt.Sprintf("predictor: bad subset geometry %d entries / %d ways", entries, assoc))
	}
	return &SubsetPredictor{table: cache.NewTagArrayFor(entries/assoc, assoc, lines)}
}

// Predict reports presence in the table, touching a hit to MRU.
func (p *SubsetPredictor) Predict(addr cache.LineAddr) bool {
	p.stats.Lookups++
	return p.table.Access(addr)
}

// Insert records a new supplier line, possibly silently evicting an LRU
// entry (which becomes a future false negative, never an incorrectness).
func (p *SubsetPredictor) Insert(addr cache.LineAddr) (cache.LineAddr, bool) {
	p.stats.Inserts++
	p.table.Insert(addr)
	return 0, false
}

// Remove drops the entry when the line leaves supplier state, preventing
// false positives.
func (p *SubsetPredictor) Remove(addr cache.LineAddr) {
	p.stats.Removes++
	p.table.Invalidate(addr)
}

// NoteFalsePositive is impossible for a subset predictor by construction;
// it is a no-op (and reaching it indicates a protocol bug upstream).
func (p *SubsetPredictor) NoteFalsePositive(cache.LineAddr) {}

// Kind returns config.PredictorSubset.
func (p *SubsetPredictor) Kind() config.PredictorKind { return config.PredictorSubset }

// Stats returns operation counts.
func (p *SubsetPredictor) Stats() Stats { return p.stats }

// Len reports the number of tracked addresses (for tests).
func (p *SubsetPredictor) Len() int { return p.table.Len() }

// ExactPredictor keeps exactly the set of supplier lines (Section 4.3.3).
// It reuses the Subset structure, but a conflict eviction returns the
// victim address with mustDowngrade=true: the protocol must downgrade that
// line's supplier state in the CMP so the predictor stays exact.
type ExactPredictor struct {
	table *cache.TagArray
	stats Stats
}

// NewExact builds an exact predictor; lines is as for NewSubset.
func NewExact(entries, assoc, lines int) *ExactPredictor {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		panic(fmt.Sprintf("predictor: bad exact geometry %d entries / %d ways", entries, assoc))
	}
	return &ExactPredictor{table: cache.NewTagArrayFor(entries/assoc, assoc, lines)}
}

// Predict reports presence in the table, touching a hit to MRU.
func (p *ExactPredictor) Predict(addr cache.LineAddr) bool {
	p.stats.Lookups++
	return p.table.Access(addr)
}

// Insert records a new supplier line. If the set was full, the evicted
// entry's line must be downgraded by the caller.
func (p *ExactPredictor) Insert(addr cache.LineAddr) (cache.LineAddr, bool) {
	p.stats.Inserts++
	victim, evicted := p.table.Insert(addr)
	if evicted {
		p.stats.Downgrades++
		return victim, true
	}
	return 0, false
}

// Remove drops the entry when the line leaves supplier state.
func (p *ExactPredictor) Remove(addr cache.LineAddr) {
	p.stats.Removes++
	p.table.Invalidate(addr)
}

// NoteFalsePositive is impossible for an exact predictor; no-op.
func (p *ExactPredictor) NoteFalsePositive(cache.LineAddr) {}

// Kind returns config.PredictorExact.
func (p *ExactPredictor) Kind() config.PredictorKind { return config.PredictorExact }

// Stats returns operation counts.
func (p *ExactPredictor) Stats() Stats { return p.stats }

// Len reports the number of tracked addresses (for tests).
func (p *ExactPredictor) Len() int { return p.table.Len() }

// PerfectPredictor consults the actual CMP cache state; it models the
// Oracle algorithm's perfect knowledge.
type PerfectPredictor struct {
	isSupplier func(cache.LineAddr) bool
	stats      Stats
}

// NewPerfect wraps a supplier-state oracle.
func NewPerfect(isSupplier func(cache.LineAddr) bool) *PerfectPredictor {
	if isSupplier == nil {
		panic("predictor: perfect predictor needs a supplier oracle")
	}
	return &PerfectPredictor{isSupplier: isSupplier}
}

// Predict returns the true supplier status.
func (p *PerfectPredictor) Predict(addr cache.LineAddr) bool {
	p.stats.Lookups++
	return p.isSupplier(addr)
}

// Insert is a no-op: the oracle already sees the caches.
func (p *PerfectPredictor) Insert(cache.LineAddr) (cache.LineAddr, bool) { return 0, false }

// Remove is a no-op.
func (p *PerfectPredictor) Remove(cache.LineAddr) {}

// NoteFalsePositive is impossible; no-op.
func (p *PerfectPredictor) NoteFalsePositive(cache.LineAddr) {}

// Kind returns config.PredictorPerfect.
func (p *PerfectPredictor) Kind() config.PredictorKind { return config.PredictorPerfect }

// Stats returns operation counts.
func (p *PerfectPredictor) Stats() Stats { return p.stats }
