package cache

import "flexsnoop/internal/config"

// Array is a set-associative cache tag array with true-LRU replacement.
// It tracks coherence state per line; data values are abstracted into the
// per-line Version counter.
//
// A *Line from Lookup or Access points into the array's storage, which
// moves when an insert grows it: the pointer is valid only until the
// next Insert into the same array or the next change to the line's set,
// whichever comes first.
type Array struct {
	s setStore[Line]

	// Stats
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// NewArray builds an array from a cache geometry. The set index is taken
// from the low bits of the line address (the line offset is already
// stripped from LineAddr). lines bounds the distinct lines the array
// will be asked to hold over its life; it sizes only the first
// allocation of the array's storage, which grows on demand.
func NewArray(cfg config.CacheConfig, lines int) *Array {
	return &Array{s: newSetStore[Line](cfg.Sets(), cfg.Assoc, lines)}
}

// Len returns the number of valid lines currently held.
func (a *Array) Len() int { return a.s.count }

// Lookup returns a pointer to the line's entry, or nil on a miss (see
// Array for how long the pointer stays valid). Lookup does not update LRU
// order; pair it with Touch for an access.
func (a *Array) Lookup(addr LineAddr) *Line {
	_, set := a.s.set(addr)
	for i := range set {
		if set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Contains reports presence without touching LRU state or stats.
func (a *Array) Contains(addr LineAddr) bool { return a.Lookup(addr) != nil }

// Touch moves the line to MRU position. No-op if absent.
func (a *Array) Touch(addr LineAddr) {
	_, set := a.s.set(addr)
	for i := range set {
		if set[i].Addr == addr {
			toFront(set, i)
			return
		}
	}
}

// Access combines Lookup and Touch, updating hit/miss stats. The hit
// path is a single scan of the set: find, rotate to MRU, return the
// front entry.
func (a *Array) Access(addr LineAddr) *Line {
	_, set := a.s.set(addr)
	for i := range set {
		if set[i].Addr == addr {
			a.Hits++
			toFront(set, i)
			return &set[0]
		}
	}
	a.Misses++
	return nil
}

// Insert places the line at MRU position with the given state and version.
// If the line is already present it is overwritten and touched. If the set
// is full, the LRU entry is evicted and returned with evicted=true.
func (a *Array) Insert(addr LineAddr, st State, version uint64) (victim Line, evicted bool) {
	if !st.Valid() {
		panic("cache: inserting an invalid line")
	}
	si, set := a.s.set(addr)
	for i := range set {
		if set[i].Addr == addr {
			set[i].State = st
			set[i].Version = version
			toFront(set, i)
			return Line{}, false
		}
	}
	l := Line{Addr: addr, State: st, Version: version}
	if len(set) < a.s.assoc {
		a.s.push(si, l)
		return Line{}, false
	}
	victim = set[len(set)-1]
	copy(set[1:], set)
	set[0] = l
	a.Evictions++
	return victim, true
}

// Invalidate removes the line, returning its final contents.
func (a *Array) Invalidate(addr LineAddr) (Line, bool) {
	si, set := a.s.set(addr)
	for i := range set {
		if set[i].Addr == addr {
			l := set[i]
			a.s.remove(si, i)
			return l, true
		}
	}
	return Line{}, false
}

// SetState rewrites the line's coherence state in place, reporting whether
// the line was present.
func (a *Array) SetState(addr LineAddr, st State) bool {
	if l := a.Lookup(addr); l != nil {
		if !st.Valid() {
			panic("cache: SetState to Invalid; use Invalidate")
		}
		l.State = st
		return true
	}
	return false
}

// ForEach visits every valid line in set-index order, each set MRU
// first. The visited Line is a copy; mutate via the other methods.
func (a *Array) ForEach(visit func(Line)) { a.s.forEach(visit) }
