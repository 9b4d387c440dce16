package cache

import (
	"fmt"

	"flexsnoop/internal/config"
)

// setStore is the set-associative storage behind Array and TagArray
// (DESIGN.md §10). It holds no pointers, so the garbage collector never
// scans it, and it costs a run only what the run touches:
//
//   - words has one uint32 per set: the arena offset of the set's
//     storage in the upper 24 bits and its valid-entry count in the low
//     8. A zero word is an empty set without storage, which is how
//     every set starts.
//   - arena holds assoc entries per touched set, each set MRU first,
//     in the order the sets were first touched. Its first allocation
//     holds min(setArenaChunk, sets, lines) sets, where lines bounds the
//     distinct lines the owner can ever hold, and it doubles when full.
//
// Growing the arena moves every entry, so a pointer into it is valid
// only until the next insert into the same store.
type setStore[T any] struct {
	words []uint32
	arena []T
	used  int // arena entries already handed to sets
	first int // arena entries of the first allocation
	assoc int
	mask  LineAddr
	count int // valid entries in all sets
}

// setArenaChunk caps the sets in an arena's first allocation: enough to
// amortise the growth of a long run, small enough that a short one
// stays cheap.
const setArenaChunk = 64

// newSetStore builds the storage for sets × assoc entries, of which the
// owner will hold at most lines distinct ones over its life.
func newSetStore[T any](sets, assoc, lines int) setStore[T] {
	switch {
	case sets <= 0 || sets&(sets-1) != 0:
		panic(fmt.Sprintf("cache: set count %d is not a positive power of two", sets))
	case assoc <= 0 || assoc > config.MaxAssoc:
		panic(fmt.Sprintf("cache: associativity %d is outside 1..%d", assoc, config.MaxAssoc))
	case sets*assoc > config.MaxTableLines:
		panic(fmt.Sprintf("cache: %d sets of %d ways exceed %d lines", sets, assoc, config.MaxTableLines))
	}
	return setStore[T]{
		words: make([]uint32, sets),
		first: min(setArenaChunk, sets, max(lines, 1)) * assoc,
		assoc: assoc,
		mask:  LineAddr(sets - 1),
	}
}

// set returns the index of addr's set and its valid entries, MRU first.
// The slice aliases the arena: writes to it update the set in place.
func (s *setStore[T]) set(addr LineAddr) (int, []T) {
	si := int(addr & s.mask)
	w := s.words[si]
	off := int(w >> 8)
	return si, s.arena[off : off+int(w&0xff)]
}

// push places x at the MRU position of set si, which must hold fewer
// than assoc entries. A set without storage gets a slot first.
func (s *setStore[T]) push(si int, x T) {
	w := s.words[si]
	if w == 0 {
		// A set whose slot is at offset 0 and that has drained also
		// reads as zero; it gets a fresh slot, stranding at most one.
		w = s.alloc()
	}
	off, n := int(w>>8), int(w&0xff)
	set := s.arena[off : off+n+1]
	copy(set[1:], set[:n])
	set[0] = x
	s.words[si] = w + 1
	s.count++
}

// alloc hands out one set's storage, growing the arena when it is full,
// and returns the set's word with a zero count.
func (s *setStore[T]) alloc() uint32 {
	if s.used == len(s.arena) {
		// At most one slot is ever stranded (see push), so sets+1
		// slots always suffice.
		n := min(max(2*len(s.arena), s.first), len(s.words)*s.assoc+s.assoc)
		grown := make([]T, n)
		copy(grown, s.arena)
		s.arena = grown
	}
	off := s.used
	s.used += s.assoc
	return uint32(off) << 8
}

// remove deletes entry i of set si, keeping the others in LRU order.
func (s *setStore[T]) remove(si, i int) {
	w := s.words[si]
	off, n := int(w>>8), int(w&0xff)
	set := s.arena[off : off+n]
	copy(set[i:], set[i+1:])
	s.words[si] = w - 1
	s.count--
}

// forEach visits every valid entry in set-index order, each set MRU
// first. Empty stores and empty sets cost nothing beyond the word scan.
func (s *setStore[T]) forEach(visit func(T)) {
	if s.count == 0 {
		return
	}
	for _, w := range s.words {
		if n := int(w & 0xff); n > 0 {
			off := int(w >> 8)
			for _, x := range s.arena[off : off+n] {
				visit(x)
			}
		}
	}
}

// toFront rotates entry i of a set to the MRU position.
func toFront[T any](set []T, i int) {
	if i > 0 {
		x := set[i]
		copy(set[1:i+1], set[:i])
		set[0] = x
	}
}
