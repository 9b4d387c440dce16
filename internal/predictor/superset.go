package predictor

import (
	"fmt"

	"flexsnoop/internal/cache"
	"flexsnoop/internal/config"
	"flexsnoop/internal/hotmap"
)

// BloomFilter is the counting Bloom filter of Figure 5(b): the line
// address is split into fields, each field indexes a separate table of
// counters. An address is possibly present iff every indexed counter is
// non-zero. Counting (rather than bit) entries allow removal.
type BloomFilter struct {
	fieldBits []uint
	shifts    []uint
	tables    [][]uint16
	// idx is the per-lookup index scratch buffer; the filter is used from
	// a single simulation goroutine, so reusing it is safe and keeps
	// MayContain/Add/Del allocation-free.
	idx []int
}

// NewBloomFilter builds a filter from per-field bit widths. Fields consume
// consecutive bit ranges of the line address starting at bit 0 (the line
// offset is already stripped from LineAddr).
func NewBloomFilter(fieldBits []uint) *BloomFilter {
	if len(fieldBits) == 0 {
		panic("predictor: bloom filter needs at least one field")
	}
	f := &BloomFilter{fieldBits: append([]uint(nil), fieldBits...)}
	shift := uint(0)
	for _, bits := range fieldBits {
		if bits == 0 || bits > 20 {
			panic(fmt.Sprintf("predictor: bloom field width %d out of range", bits))
		}
		f.shifts = append(f.shifts, shift)
		f.tables = append(f.tables, make([]uint16, 1<<bits))
		shift += bits
	}
	return f
}

func (f *BloomFilter) indices(addr cache.LineAddr) []int {
	if f.idx == nil {
		f.idx = make([]int, len(f.tables))
	}
	for i, bits := range f.fieldBits {
		f.idx[i] = int((addr >> f.shifts[i]) & cache.LineAddr(1<<bits-1))
	}
	return f.idx
}

// MayContain reports whether the address could be in the tracked set.
func (f *BloomFilter) MayContain(addr cache.LineAddr) bool {
	for i, idx := range f.indices(addr) {
		if f.tables[i][idx] == 0 {
			return false
		}
	}
	return true
}

// Add increments the address's counters.
func (f *BloomFilter) Add(addr cache.LineAddr) {
	for i, idx := range f.indices(addr) {
		if f.tables[i][idx] == ^uint16(0) {
			panic("predictor: bloom counter overflow")
		}
		f.tables[i][idx]++
	}
}

// Del decrements the address's counters. Deleting an address that was
// never added corrupts the filter, so it panics.
func (f *BloomFilter) Del(addr cache.LineAddr) {
	for i, idx := range f.indices(addr) {
		if f.tables[i][idx] == 0 {
			panic("predictor: bloom counter underflow — removal without insertion")
		}
		f.tables[i][idx]--
	}
}

// SizeBits returns the total number of counter entries (for reporting).
func (f *BloomFilter) SizeBits() int {
	n := 0
	for _, t := range f.tables {
		n += len(t)
	}
	return n
}

// SupersetPredictor tracks a strict superset of the CMP's supplier lines
// with a counting Bloom filter, optionally refined by a JETTY-style
// exclude cache of addresses known not to be supplier lines (Section
// 4.3.2). It never produces false negatives.
type SupersetPredictor struct {
	bloom   *BloomFilter
	exclude *cache.TagArray // nil when disabled
	stats   Stats

	// tracked mirrors the true inserted multiset so Remove can be
	// validated in tests; it holds reference counts.
	tracked hotmap.Table[int32]
}

// NewSuperset builds a superset predictor. excludeEntries/excludeAssoc
// size the exclude cache; useExclude disables it entirely when false.
// lines bounds the distinct supplier lines the predictor will be trained
// with and excludeLines the distinct lines it can be asked about; they
// size only the initial tables.
func NewSuperset(fieldBits []uint, excludeEntries, excludeAssoc int, useExclude bool, lines, excludeLines int) *SupersetPredictor {
	p := &SupersetPredictor{
		bloom:   NewBloomFilter(fieldBits),
		tracked: *hotmap.New[int32](min(256, lines)),
	}
	if useExclude {
		if excludeEntries <= 0 || excludeAssoc <= 0 || excludeEntries%excludeAssoc != 0 {
			panic(fmt.Sprintf("predictor: bad exclude-cache geometry %d/%d", excludeEntries, excludeAssoc))
		}
		p.exclude = cache.NewTagArrayFor(excludeEntries/excludeAssoc, excludeAssoc, excludeLines)
	}
	return p
}

// Predict is positive iff the Bloom filter may contain the address and the
// exclude cache does not list it as a known non-supplier.
func (p *SupersetPredictor) Predict(addr cache.LineAddr) bool {
	p.stats.Lookups++
	if !p.bloom.MayContain(addr) {
		return false
	}
	if p.exclude != nil && p.exclude.Access(addr) {
		p.stats.ExcludeHits++
		return false
	}
	return true
}

// Insert adds the line to the filter and clears any stale exclude-cache
// entry (the line is now genuinely a supplier line, so a cached "not
// present" verdict would be a false negative — forbidden).
func (p *SupersetPredictor) Insert(addr cache.LineAddr) (cache.LineAddr, bool) {
	p.stats.Inserts++
	p.bloom.Add(addr)
	*p.tracked.Upsert(uint64(addr))++
	if p.exclude != nil {
		p.exclude.Invalidate(addr)
	}
	return 0, false
}

// Remove decrements the filter when the line leaves supplier state.
func (p *SupersetPredictor) Remove(addr cache.LineAddr) {
	p.stats.Removes++
	c, _ := p.tracked.Get(uint64(addr))
	if c == 0 {
		panic("predictor: superset Remove without matching Insert")
	}
	if c > 1 {
		p.tracked.Put(uint64(addr), c-1)
	} else {
		p.tracked.Delete(uint64(addr))
	}
	p.bloom.Del(addr)
}

// NoteFalsePositive trains the exclude cache with an address the Bloom
// filter wrongly reported (JETTY's refinement).
func (p *SupersetPredictor) NoteFalsePositive(addr cache.LineAddr) {
	if p.exclude == nil {
		return
	}
	// Guard against a racing Insert: never exclude a genuinely tracked
	// address, which would create a false negative.
	if p.tracked.Has(uint64(addr)) {
		return
	}
	p.exclude.Insert(addr)
}

// Kind returns config.PredictorSuperset.
func (p *SupersetPredictor) Kind() config.PredictorKind { return config.PredictorSuperset }

// Stats returns operation counts.
func (p *SupersetPredictor) Stats() Stats { return p.stats }

// TrackedLen reports the number of genuinely inserted addresses (tests).
func (p *SupersetPredictor) TrackedLen() int { return p.tracked.Len() }
