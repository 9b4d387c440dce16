package cache

import "testing"

func TestTagArrayAccessLRU(t *testing.T) {
	a := NewTagArray(1, 2)
	if a.Access(5) {
		t.Fatal("Access on empty array reported a hit")
	}
	if _, ev := a.Insert(5); ev {
		t.Fatal("insert into empty set evicted")
	}
	if _, ev := a.Insert(7); ev {
		t.Fatal("second insert evicted")
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	// 5 is LRU; touching it makes 7 the victim of the next insert.
	if !a.Access(5) {
		t.Fatal("Access(5) missed")
	}
	victim, ev := a.Insert(9)
	if !ev || victim != 7 {
		t.Fatalf("Insert(9) evicted (%v, %v), want (7, true)", victim, ev)
	}
	if a.Access(7) {
		t.Fatal("evicted address still present")
	}
}

func TestTagArrayInsertExistingRotates(t *testing.T) {
	a := NewTagArray(1, 2)
	a.Insert(1)
	a.Insert(2)
	if _, ev := a.Insert(1); ev {
		t.Fatal("re-insert of present address evicted")
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d after duplicate insert, want 2", a.Len())
	}
	// 1 was rotated to MRU, so 2 is now the victim.
	if victim, ev := a.Insert(3); !ev || victim != 2 {
		t.Fatalf("Insert(3) evicted (%v, %v), want (2, true)", victim, ev)
	}
}

func TestTagArrayInvalidate(t *testing.T) {
	a := NewTagArray(2, 2)
	a.Insert(4) // set 0
	a.Insert(5) // set 1
	if !a.Invalidate(4) {
		t.Fatal("Invalidate(4) missed")
	}
	if a.Invalidate(4) {
		t.Fatal("double Invalidate reported present")
	}
	if a.Len() != 1 {
		t.Fatalf("Len = %d, want 1", a.Len())
	}
	if !a.Access(5) {
		t.Fatal("unrelated address lost")
	}
}

func TestTagArraySetIndexing(t *testing.T) {
	a := NewTagArray(4, 1)
	// Addresses 0..3 land in distinct sets; no evictions.
	for addr := LineAddr(0); addr < 4; addr++ {
		if _, ev := a.Insert(addr); ev {
			t.Fatalf("Insert(%d) evicted across sets", addr)
		}
	}
	// Address 4 conflicts with 0 (4 & 3 == 0) in a 1-way set.
	if victim, ev := a.Insert(4); !ev || victim != 0 {
		t.Fatalf("Insert(4) evicted (%v, %v), want (0, true)", victim, ev)
	}
}
