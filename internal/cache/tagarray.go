package cache

// TagArray is a set-associative, true-LRU array of bare line addresses —
// the tag-only counterpart of Array for structures that track presence
// without per-line coherence state (the supplier predictors' address
// tables, Section 4.3). An 8-way set is one cache line of 8-byte tags, so
// the predict-path scan touches a third of the memory an Array of Lines
// would, and the MRU rotation moves 8-byte words instead of 24-byte
// structs.
type TagArray struct {
	s setStore[LineAddr]
}

// NewTagArray builds a tag array from (sets, assoc). The set index is the
// low bits of the line address, matching Array.
func NewTagArray(sets, assoc int) *TagArray { return NewTagArrayFor(sets, assoc, sets*assoc) }

// NewTagArrayFor builds a tag array that will be asked to hold at most
// lines distinct addresses over its life; like NewArray's bound, it
// sizes only the first allocation of the array's storage.
func NewTagArrayFor(sets, assoc, lines int) *TagArray {
	return &TagArray{s: newSetStore[LineAddr](sets, assoc, lines)}
}

// Len returns the number of addresses currently held.
func (a *TagArray) Len() int { return a.s.count }

// Access reports presence and moves a hit to MRU position — the
// predict-path operation, one scan for find and rotate together.
func (a *TagArray) Access(addr LineAddr) bool {
	_, set := a.s.set(addr)
	for i, t := range set {
		if t == addr {
			toFront(set, i)
			return true
		}
	}
	return false
}

// Insert places the address at MRU position. If it is already present it
// is just rotated to MRU. If the set is full, the LRU address is evicted
// and returned with evicted=true.
func (a *TagArray) Insert(addr LineAddr) (victim LineAddr, evicted bool) {
	si, set := a.s.set(addr)
	for i, t := range set {
		if t == addr {
			toFront(set, i)
			return 0, false
		}
	}
	if len(set) < a.s.assoc {
		a.s.push(si, addr)
		return 0, false
	}
	victim = set[len(set)-1]
	copy(set[1:], set)
	set[0] = addr
	return victim, true
}

// Invalidate removes the address, reporting whether it was present.
func (a *TagArray) Invalidate(addr LineAddr) bool {
	si, set := a.s.set(addr)
	for i, t := range set {
		if t == addr {
			a.s.remove(si, i)
			return true
		}
	}
	return false
}
