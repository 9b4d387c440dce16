package cache

import (
	"fmt"
	"slices"
	"testing"

	"flexsnoop/internal/config"
)

// refArray is the reference model for Array and TagArray: one plain
// slice per set, MRU first.
type refArray struct {
	sets                    [][]Line
	assoc                   int
	hits, misses, evictions uint64
}

func (m *refArray) find(addr LineAddr) (si, i int) {
	si = int(addr) % len(m.sets)
	for i, l := range m.sets[si] {
		if l.Addr == addr {
			return si, i
		}
	}
	return si, -1
}

func (m *refArray) touch(si, i int) {
	set := m.sets[si]
	l := set[i]
	m.sets[si] = append([]Line{l}, append(set[:i:i], set[i+1:]...)...)
}

func (m *refArray) remove(si, i int) Line {
	l := m.sets[si][i]
	m.sets[si] = append(m.sets[si][:i:i], m.sets[si][i+1:]...)
	return l
}

func (m *refArray) insert(l Line) (victim Line, evicted bool) {
	si, i := m.find(l.Addr)
	if i >= 0 {
		m.sets[si][i] = l
		m.touch(si, i)
		return Line{}, false
	}
	set := append([]Line{l}, m.sets[si]...)
	if len(set) > m.assoc {
		victim, evicted = set[m.assoc], true
		set = set[:m.assoc]
		m.evictions++
	}
	m.sets[si] = set
	return victim, evicted
}

func (m *refArray) len() int {
	n := 0
	for _, set := range m.sets {
		n += len(set)
	}
	return n
}

// all lists the model's lines in ForEach order: set index, MRU first.
func (m *refArray) all() []Line {
	var out []Line
	for _, set := range m.sets {
		out = append(out, set...)
	}
	return out
}

// FuzzArrayAgainstModel drives an Array and a TagArray with the same
// random Insert/Access/Lookup/Touch/Invalidate/SetState sequence and
// compares both with refArray after every step: contents, LRU order (via
// ForEach order and victims), Len, and the Array's hit, miss and eviction
// counts. The first three bytes pick the geometry and the line bound that
// sizes the arena's first allocation, so sequences that touch more sets
// than that grow the arena mid-run and move every stored line.
func FuzzArrayAgainstModel(f *testing.F) {
	// Grows the arena: 32 sets, 2 ways, a first allocation of one set,
	// then inserts that touch every set, interleaved with hits.
	grow := []byte{5, 1, 0}
	for a := byte(0); a < 32; a++ {
		grow = append(grow, 0, a, 1, a/2, 3, a/3)
	}
	f.Add(grow)
	// Fills set 0 past its four ways, drains it, then refills it: the
	// set whose storage sits at offset 0 reads as untouched once empty,
	// and the last insert needs the one slot beyond the set count.
	fill := []byte{2, 3, 3}
	for _, a := range []byte{0, 4, 8, 12, 16, 1, 5} {
		fill = append(fill, 0, a)
	}
	for _, a := range []byte{16, 12, 8, 4, 0} {
		fill = append(fill, 4, a)
	}
	for _, a := range []byte{20, 24, 2, 28, 32, 36, 3} {
		fill = append(fill, 0, a, 1, 20)
	}
	f.Add(fill)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		sets, assoc, lines := 1<<(data[0]%6), 1+int(data[1]%8), 1+int(data[2]%64)
		checkAgainstModel(t, sets, assoc, lines, data[3:])
	})
}

func checkAgainstModel(t *testing.T, sets, assoc, lines int, ops []byte) {
	t.Helper()
	cfg := config.CacheConfig{SizeBytes: sets * assoc * 64, Assoc: assoc, LineBytes: 64}
	a := NewArray(cfg, lines)
	ta := NewTagArrayFor(sets, assoc, lines)
	m := &refArray{sets: make([][]Line, sets), assoc: assoc}
	tm := &refArray{sets: make([][]Line, sets), assoc: assoc}
	states := []State{Shared, SharedLocal, SharedGlobal, Exclusive, Dirty, Tagged}
	for step := 0; step+1 < len(ops); step += 2 {
		op, addr := ops[step]%6, LineAddr(ops[step+1])
		st, version := states[int(ops[step+1])%len(states)], uint64(step)
		where := fmt.Sprintf("step %d (op %d, addr %#x)", step/2, op, addr)
		si, i := m.find(addr)
		tsi, ti := tm.find(addr)
		switch op {
		case 0: // Insert
			v, ev := a.Insert(addr, st, version)
			wv, wev := m.insert(Line{Addr: addr, State: st, Version: version})
			if v != wv || ev != wev {
				t.Fatalf("%s: Array.Insert evicted %+v,%v, model %+v,%v", where, v, ev, wv, wev)
			}
			tv, tev := ta.Insert(addr)
			twv, twev := tm.insert(Line{Addr: addr})
			if tv != twv.Addr || tev != twev {
				t.Fatalf("%s: TagArray.Insert evicted %#x,%v, model %#x,%v", where, tv, tev, twv.Addr, twev)
			}
		case 1: // Access
			l := a.Access(addr)
			if (l != nil) != (i >= 0) {
				t.Fatalf("%s: Array.Access hit=%v, model %v", where, l != nil, i >= 0)
			}
			if i >= 0 {
				m.hits++
				if *l != m.sets[si][i] {
					t.Fatalf("%s: Array.Access = %+v, model %+v", where, *l, m.sets[si][i])
				}
				m.touch(si, i)
			} else {
				m.misses++
			}
			if hit := ta.Access(addr); hit != (ti >= 0) {
				t.Fatalf("%s: TagArray.Access = %v, model %v", where, hit, ti >= 0)
			}
			if ti >= 0 {
				tm.touch(tsi, ti)
			}
		case 2: // Lookup
			l := a.Lookup(addr)
			if (l != nil) != (i >= 0) || (l != nil && *l != m.sets[si][i]) {
				t.Fatalf("%s: Array.Lookup = %v, model index %d", where, l, i)
			}
		case 3: // Touch
			a.Touch(addr)
			if i >= 0 {
				m.touch(si, i)
			}
		case 4: // Invalidate
			l, ok := a.Invalidate(addr)
			if ok != (i >= 0) || (ok && l != m.sets[si][i]) {
				t.Fatalf("%s: Array.Invalidate = %+v,%v, model index %d", where, l, ok, i)
			}
			if ok {
				m.remove(si, i)
			}
			if ok := ta.Invalidate(addr); ok != (ti >= 0) {
				t.Fatalf("%s: TagArray.Invalidate = %v, model %v", where, ok, ti >= 0)
			}
			if ti >= 0 {
				tm.remove(tsi, ti)
			}
		case 5: // SetState
			if ok := a.SetState(addr, st); ok != (i >= 0) {
				t.Fatalf("%s: Array.SetState = %v, model %v", where, ok, i >= 0)
			}
			if i >= 0 {
				m.sets[si][i].State = st
			}
		}
		var got []Line
		a.ForEach(func(l Line) { got = append(got, l) })
		if want := m.all(); !slices.Equal(got, want) {
			t.Fatalf("%s: Array.ForEach = %v, model %v", where, got, want)
		}
		var tags []Line
		ta.s.forEach(func(addr LineAddr) { tags = append(tags, Line{Addr: addr}) })
		if want := tm.all(); !slices.Equal(tags, want) {
			t.Fatalf("%s: TagArray contents %v, model %v", where, tags, want)
		}
		if a.Len() != m.len() || ta.Len() != tm.len() {
			t.Fatalf("%s: Len = %d/%d, model %d/%d", where, a.Len(), ta.Len(), m.len(), tm.len())
		}
		if a.Hits != m.hits || a.Misses != m.misses || a.Evictions != m.evictions {
			t.Fatalf("%s: hits/misses/evictions = %d/%d/%d, model %d/%d/%d",
				where, a.Hits, a.Misses, a.Evictions, m.hits, m.misses, m.evictions)
		}
	}
}
