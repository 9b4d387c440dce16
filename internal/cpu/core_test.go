package cpu

import (
	"testing"

	"flexsnoop/internal/cache"
	"flexsnoop/internal/protocol"
	"flexsnoop/internal/sim"
	"flexsnoop/internal/workload"
)

// fakeMem completes loads after loadLat cycles and stores after storeLat.
type fakeMem struct {
	kern     *sim.Kernel
	loadLat  sim.Time
	storeLat sim.Time
	loads    int
	stores   int
	inFlight int
	maxInFly int
}

func (f *fakeMem) Access(node, core int, kind protocol.AccessKind, addr cache.LineAddr, done func()) {
	lat := f.loadLat
	if kind == protocol.Store {
		f.stores++
		lat = f.storeLat
		f.inFlight++
		if f.inFlight > f.maxInFly {
			f.maxInFly = f.inFlight
		}
		f.kern.After(lat, func() {
			f.inFlight--
			done()
		})
		return
	}
	f.loads++
	f.kern.After(lat, done)
}

func ops(n int, compute uint32, store bool) []workload.Op {
	var out []workload.Op
	for i := 0; i < n; i++ {
		out = append(out, workload.Op{Compute: compute, Addr: cache.LineAddr(i), Store: store})
	}
	return out
}

func TestBlockingLoads(t *testing.T) {
	kern := sim.NewKernel()
	mem := &fakeMem{kern: kern, loadLat: 100}
	finished := false
	c := NewMLP(kern, mem, 0, 0, 8, 1, workload.NewSliceSource(ops(5, 10, false)), func() { finished = true })
	c.Start()
	kern.RunAll()
	if !finished || !c.Finished() {
		t.Fatal("core never finished")
	}
	// Each op: 10 compute cycles + 100-cycle blocking load = 110.
	if c.FinishedAt != 5*110 {
		t.Errorf("FinishedAt = %d, want 550", c.FinishedAt)
	}
	if c.Instructions != 5*11 {
		t.Errorf("Instructions = %d, want 55", c.Instructions)
	}
	if c.Loads != 5 || mem.loads != 5 {
		t.Errorf("loads = %d/%d, want 5/5", c.Loads, mem.loads)
	}
	if c.LoadStall != 5*100 {
		t.Errorf("LoadStall = %d, want 500", c.LoadStall)
	}
}

func TestStoresDoNotBlock(t *testing.T) {
	kern := sim.NewKernel()
	mem := &fakeMem{kern: kern, storeLat: 1000}
	c := NewMLP(kern, mem, 0, 0, 8, 1, workload.NewSliceSource(ops(4, 0, true)), nil)
	c.Start()
	kern.RunAll()
	// 4 stores fit the buffer: the core advances one cycle per store and
	// finishes when the last store drains (issued at cycle 3 -> 1003).
	if c.FinishedAt != 1003 {
		t.Errorf("FinishedAt = %d, want 1003 (drain of last store)", c.FinishedAt)
	}
	if c.WBStall != 0 {
		t.Errorf("WBStall = %d, want 0", c.WBStall)
	}
	if mem.maxInFly != 4 {
		t.Errorf("max in-flight stores = %d, want 4 (buffered)", mem.maxInFly)
	}
}

func TestWriteBufferStalls(t *testing.T) {
	kern := sim.NewKernel()
	mem := &fakeMem{kern: kern, storeLat: 1000}
	c := NewMLP(kern, mem, 0, 0, 2, 1, workload.NewSliceSource(ops(4, 0, true)), nil)
	c.Start()
	kern.RunAll()
	if c.WBStall == 0 {
		t.Error("full write buffer never stalled the core")
	}
	if mem.maxInFly > 2 {
		t.Errorf("in-flight stores = %d exceeds buffer capacity 2", mem.maxInFly)
	}
	if c.Stores != 4 {
		t.Errorf("Stores = %d, want 4", c.Stores)
	}
}

func TestMixedStream(t *testing.T) {
	kern := sim.NewKernel()
	mem := &fakeMem{kern: kern, loadLat: 50, storeLat: 200}
	stream := []workload.Op{
		{Compute: 5, Addr: 1},
		{Compute: 2, Addr: 2, Store: true},
		{Compute: 3, Addr: 3},
	}
	c := NewMLP(kern, mem, 0, 0, 4, 1, workload.NewSliceSource(stream), nil)
	c.Start()
	kern.RunAll()
	if c.Loads != 2 || c.Stores != 1 {
		t.Errorf("loads/stores = %d/%d, want 2/1", c.Loads, c.Stores)
	}
	if c.Instructions != 6+3+4 {
		t.Errorf("Instructions = %d, want 13", c.Instructions)
	}
	if !c.Finished() {
		t.Error("core did not finish")
	}
}

func TestEmptyStreamFinishesImmediately(t *testing.T) {
	kern := sim.NewKernel()
	mem := &fakeMem{kern: kern}
	done := false
	c := NewMLP(kern, mem, 0, 0, 1, 1, workload.NewSliceSource(nil), func() { done = true })
	c.Start()
	kern.RunAll()
	if !done || c.FinishedAt != 0 || c.Instructions != 0 {
		t.Errorf("empty stream: done=%v at=%d instr=%d", done, c.FinishedAt, c.Instructions)
	}
}

func TestBadWriteBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero write buffer accepted")
		}
	}()
	NewMLP(sim.NewKernel(), &fakeMem{}, 0, 0, 0, 1, workload.NewSliceSource(nil), nil)
}

func TestMLPOverlapsLoads(t *testing.T) {
	// With 4-deep MLP, 4 independent 1000-cycle loads overlap almost
	// completely; with blocking loads they serialize.
	mk := func(mlp int) sim.Time {
		kern := sim.NewKernel()
		mem := &fakeMem{kern: kern, loadLat: 1000}
		c := NewMLP(kern, mem, 0, 0, 8, mlp, workload.NewSliceSource(ops(4, 0, false)), nil)
		c.Start()
		kern.RunAll()
		if !c.Finished() {
			t.Fatal("core never finished")
		}
		return c.FinishedAt
	}
	blocking := mk(1)
	overlapped := mk(4)
	if blocking != 4000 {
		t.Errorf("blocking finish = %d, want 4000", blocking)
	}
	// Loads issued one cycle apart: last completes at 3+1000.
	if overlapped != 1003 {
		t.Errorf("MLP-4 finish = %d, want 1003", overlapped)
	}
}

func TestMLPWindowLimit(t *testing.T) {
	kern := sim.NewKernel()
	mem := &fakeMem{kern: kern, loadLat: 500}
	c := NewMLP(kern, mem, 0, 0, 8, 2, workload.NewSliceSource(ops(6, 0, false)), nil)
	c.Start()
	kern.RunAll()
	if c.LoadStall == 0 {
		t.Error("full load window never stalled the core")
	}
	if c.Loads != 6 {
		t.Errorf("Loads = %d, want 6", c.Loads)
	}
	// Three waves of two loads: finish around 3*500.
	if c.FinishedAt < 1500 || c.FinishedAt > 1600 {
		t.Errorf("finish = %d, want ~1500", c.FinishedAt)
	}
}

func TestMLPDrainWaitsForLoads(t *testing.T) {
	kern := sim.NewKernel()
	mem := &fakeMem{kern: kern, loadLat: 700}
	done := false
	c := NewMLP(kern, mem, 0, 0, 8, 4, workload.NewSliceSource(ops(2, 0, false)), func() { done = true })
	c.Start()
	kern.RunAll()
	if !done {
		t.Fatal("never finished")
	}
	if c.FinishedAt < 700 {
		t.Errorf("finished at %d before loads returned", c.FinishedAt)
	}
}

func TestBadMLPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero MLP accepted")
		}
	}()
	NewMLP(sim.NewKernel(), &fakeMem{}, 0, 0, 1, 0, workload.NewSliceSource(nil), nil)
}
