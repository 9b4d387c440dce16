package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexsnoop/internal/config"
)

// newArray builds an array of sets x assoc 64-byte lines.
func newArray(sets, assoc int) *Array {
	return NewArray(config.CacheConfig{SizeBytes: sets * assoc * 64, Assoc: assoc, LineBytes: 64}, sets*assoc)
}

func smallArray() *Array {
	// 4 sets x 2 ways = 8 lines of 64B.
	return newArray(4, 2)
}

func TestInsertLookup(t *testing.T) {
	a := smallArray()
	a.Insert(0x100, Exclusive, 7)
	l := a.Lookup(0x100)
	if l == nil {
		t.Fatal("inserted line not found")
	}
	if l.State != Exclusive || l.Version != 7 {
		t.Errorf("line = %+v, want E/v7", *l)
	}
	if a.Lookup(0x101) != nil {
		t.Error("found a line that was never inserted")
	}
	if a.Len() != 1 {
		t.Errorf("Len = %d, want 1", a.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	a := smallArray()
	// Addresses 0, 4, 8 share set 0 (4 sets).
	a.Insert(0, Shared, 0)
	a.Insert(4, Shared, 0)
	// Touch 0 so 4 becomes LRU.
	a.Touch(0)
	victim, evicted := a.Insert(8, Shared, 0)
	if !evicted {
		t.Fatal("full set did not evict")
	}
	if victim.Addr != 4 {
		t.Errorf("evicted %#x, want 0x4 (the LRU line)", victim.Addr)
	}
	if a.Lookup(0) == nil || a.Lookup(8) == nil {
		t.Error("surviving lines missing after eviction")
	}
	if a.Lookup(4) != nil {
		t.Error("evicted line still present")
	}
}

func TestInsertExistingUpdatesInPlace(t *testing.T) {
	a := smallArray()
	a.Insert(0, Shared, 1)
	victim, evicted := a.Insert(0, Dirty, 2)
	if evicted {
		t.Errorf("re-insert evicted %+v", victim)
	}
	l := a.Lookup(0)
	if l.State != Dirty || l.Version != 2 {
		t.Errorf("line = %+v, want D/v2", *l)
	}
	if a.Len() != 1 {
		t.Errorf("Len = %d, want 1", a.Len())
	}
}

func TestInvalidate(t *testing.T) {
	a := smallArray()
	a.Insert(0, Tagged, 3)
	l, ok := a.Invalidate(0)
	if !ok || l.State != Tagged || l.Version != 3 {
		t.Errorf("Invalidate = %+v,%v", l, ok)
	}
	if a.Len() != 0 || a.Lookup(0) != nil {
		t.Error("line still present after invalidate")
	}
	if _, ok := a.Invalidate(0); ok {
		t.Error("double invalidate reported success")
	}
}

func TestSetState(t *testing.T) {
	a := smallArray()
	a.Insert(0, Exclusive, 0)
	if !a.SetState(0, SharedGlobal) {
		t.Fatal("SetState missed a present line")
	}
	if a.Lookup(0).State != SharedGlobal {
		t.Error("state not rewritten")
	}
	if a.SetState(99, Shared) {
		t.Error("SetState hit an absent line")
	}
	defer func() {
		if recover() == nil {
			t.Error("SetState(Invalid) did not panic")
		}
	}()
	a.SetState(0, Invalid)
}

func TestInsertInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert(Invalid) did not panic")
		}
	}()
	smallArray().Insert(0, Invalid, 0)
}

func TestAccessStats(t *testing.T) {
	a := smallArray()
	a.Insert(0, Shared, 0)
	if a.Access(0) == nil {
		t.Error("Access missed present line")
	}
	if a.Access(16) != nil {
		t.Error("Access hit absent line")
	}
	if a.Hits != 1 || a.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", a.Hits, a.Misses)
	}
}

func TestForEach(t *testing.T) {
	a := smallArray()
	want := map[LineAddr]bool{1: true, 2: true, 3: true}
	for addr := range want {
		a.Insert(addr, Shared, 0)
	}
	got := map[LineAddr]bool{}
	a.ForEach(func(l Line) { got[l.Addr] = true })
	if len(got) != len(want) {
		t.Fatalf("visited %d lines, want %d", len(got), len(want))
	}
	for addr := range want {
		if !got[addr] {
			t.Errorf("ForEach missed %#x", addr)
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range []struct{ sets, assoc int }{{3, 2}, {0, 2}, {4, 0}, {4, 256}, {1 << 22, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d sets x %d ways did not panic", g.sets, g.assoc)
				}
			}()
			NewTagArray(g.sets, g.assoc)
		}()
	}
}

// TestPropertyNeverExceedsCapacity: arbitrary insert/invalidate sequences
// never exceed set capacity, and Len always equals the visited line count.
func TestPropertyNeverExceedsCapacity(t *testing.T) {
	f := func(ops []uint16) bool {
		a := newArray(8, 2)
		for _, op := range ops {
			addr := LineAddr(op % 64)
			if op&0x8000 != 0 {
				a.Invalidate(addr)
			} else {
				a.Insert(addr, Shared, 0)
			}
		}
		n := 0
		a.ForEach(func(Line) { n++ })
		return n == a.Len() && a.Len() <= 8*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLRUMatchesReference cross-checks the array against a straightforward
// per-set reference model under a random workload.
func TestLRUMatchesReference(t *testing.T) {
	const sets, assoc = 4, 4
	a := newArray(sets, assoc)
	ref := make([][]LineAddr, sets) // MRU-first
	rng := rand.New(rand.NewSource(1))

	refInsert := func(addr LineAddr) {
		si := int(addr % sets)
		set := ref[si]
		for i, x := range set {
			if x == addr {
				set = append(set[:i], set[i+1:]...)
				ref[si] = append([]LineAddr{addr}, set...)
				return
			}
		}
		set = append([]LineAddr{addr}, set...)
		if len(set) > assoc {
			set = set[:assoc]
		}
		ref[si] = set
	}
	refTouch := func(addr LineAddr) {
		si := int(addr % sets)
		for i, x := range ref[si] {
			if x == addr {
				set := append(ref[si][:i], ref[si][i+1:]...)
				ref[si] = append([]LineAddr{addr}, set...)
				return
			}
		}
	}

	for i := 0; i < 5000; i++ {
		addr := LineAddr(rng.Intn(40))
		switch rng.Intn(3) {
		case 0:
			a.Insert(addr, Shared, 0)
			refInsert(addr)
		case 1:
			a.Touch(addr)
			refTouch(addr)
		case 2:
			a.Invalidate(addr)
			si := int(addr % sets)
			for j, x := range ref[si] {
				if x == addr {
					ref[si] = append(ref[si][:j], ref[si][j+1:]...)
					break
				}
			}
		}
		// Compare set contents as sets (order checked via victim below).
		for si := 0; si < sets; si++ {
			inRef := map[LineAddr]bool{}
			for _, x := range ref[si] {
				inRef[x] = true
			}
			got := 0
			a.ForEach(func(l Line) {
				if int(l.Addr%sets) == si {
					got++
					if !inRef[l.Addr] {
						t.Fatalf("iter %d: array holds %#x not in reference", i, l.Addr)
					}
				}
			})
			if got != len(ref[si]) {
				t.Fatalf("iter %d set %d: array has %d lines, reference %d", i, si, got, len(ref[si]))
			}
		}
	}
}
