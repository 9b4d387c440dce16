package protocol_test

import (
	"testing"

	"flexsnoop/internal/cache"
	"flexsnoop/internal/checker"
	"flexsnoop/internal/config"
	"flexsnoop/internal/core"
	"flexsnoop/internal/energy"
	"flexsnoop/internal/protocol"
	"flexsnoop/internal/sim"
)

// TestUseOnceReadDuringWrite: a read overlapping a write completes and
// delivers a value, but never leaves a cached copy behind the write's
// invalidation sweep.
func TestUseOnceReadDuringWrite(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	// Establish a dirty owner far from both contenders.
	e.Access(4, 0, protocol.Store, 0x50, nil)
	kern.RunAll()
	// Launch the write first, the read immediately after: the read sees
	// a write in flight and must complete use-once.
	done := 0
	e.Access(1, 0, protocol.Store, 0x50, func() { done++ })
	e.Access(6, 0, protocol.Load, 0x50, func() { done++ })
	run(t, kern, e)
	if done != 2 {
		t.Fatalf("completed %d/2", done)
	}
	s := e.Stats()
	if s.UseOnceReads == 0 {
		t.Error("overlapping read did not complete use-once")
	}
	// The writer owns the only copy.
	if st := e.LineState(1, 0, 0x50); st != cache.Dirty {
		t.Errorf("writer state = %v, want D", st)
	}
	if st := e.LineState(6, 0, 0x50); st != cache.Invalid {
		t.Errorf("use-once reader cached a copy: %v", st)
	}
}

// TestExclusiveRegrantAfterWrite: the home's masterless mark blocks E
// grants after a demotion, and a completed write restores them.
func TestExclusiveRegrantAfterWrite(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	// Two crossing reads demote each other: both get plain S, the home
	// is marked.
	e.Access(0, 0, protocol.Load, 0x60, nil)
	e.Access(4, 0, protocol.Load, 0x60, nil)
	kern.RunAll()
	s0 := e.LineState(0, 0, 0x60)
	s4 := e.LineState(4, 0, 0x60)
	if s0.GlobalSupplier() && s4.GlobalSupplier() {
		t.Fatalf("two masters: %v and %v", s0, s4)
	}
	// A third read while the mark is set must not get E, even though its
	// circuit might see no sharer (it does here, so this is belt and
	// braces); drive a write instead to clear the mark.
	e.Access(2, 0, protocol.Store, 0x60, nil)
	kern.RunAll()
	if st := e.LineState(2, 0, 0x60); st != cache.Dirty {
		t.Fatalf("writer state = %v, want D", st)
	}
	// Evict nothing; invalidate by another write, then a lone read gets
	// E again (mark cleared by the completed writes).
	e.Access(5, 0, protocol.Store, 0x60, nil)
	kern.RunAll()
	e.Access(5, 0, protocol.Load, 0x61, nil) // unrelated warm line
	kern.RunAll()
	// Remove the owner's copy via a third write, then read fresh.
	e.Access(7, 0, protocol.Store, 0x60, nil)
	kern.RunAll()
	e.Access(7, 3, protocol.Load, 0x62, nil)
	kern.RunAll()
	run(t, kern, e)
}

// TestNoExclusiveWhileDowngradedSLExists: the Exact predictor's downgrade
// leaves an S_L copy invisible to ring snoops; the home's mark must then
// refuse Exclusive to later readers.
func TestNoExclusiveWhileDowngradedSLExists(t *testing.T) {
	kern := sim.NewKernel()
	pol := core.NewPolicy(config.Exact)
	tiny := config.PredictorConfig{Kind: config.PredictorExact, Name: "tiny", Entries: 2, Assoc: 2, AccessCycles: 2}
	e, err := protocol.NewEngine(kern, protocol.Options{
		Machine: config.DefaultMachine(), Predictor: tiny,
		PolicyFor: func(int) core.Policy { return pol },
		Energy:    energy.DefaultParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	armChecker(t, kern, e)
	// Fill node 0 with three supplier lines in the same predictor set;
	// the 2-entry predictor must downgrade one to S_L.
	for i := 0; i < 3; i++ {
		e.Access(0, 0, protocol.Load, cache.LineAddr(0x100+i*2), nil)
		kern.RunAll()
	}
	s := e.Stats()
	if s.Downgrades == 0 {
		t.Fatal("tiny exact predictor performed no downgrades")
	}
	// Find the downgraded line (state S_L at node 0).
	var victim cache.LineAddr
	found := false
	for i := 0; i < 3; i++ {
		a := cache.LineAddr(0x100 + i*2)
		if e.LineState(0, 0, a) == cache.SharedLocal {
			victim, found = a, true
		}
	}
	if !found {
		t.Fatal("no downgraded S_L line found")
	}
	// A remote read of the downgraded line goes to memory (no supplier)
	// and must NOT be granted Exclusive while the S_L copy survives.
	e.Access(5, 0, protocol.Load, victim, nil)
	kern.RunAll()
	if st := e.LineState(5, 0, victim); st == cache.Exclusive {
		t.Errorf("memory granted E while a downgraded S_L exists at node 0")
	}
	if err := checker.New(e).CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteWriteFoundImmunity: a write that claimed the line's data cannot
// be squashed by a younger write; the younger retries and serializes after.
func TestWriteWriteFoundImmunity(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	e.Access(3, 0, protocol.Store, 0x70, nil) // D at node 3
	kern.RunAll()
	done := 0
	e.Access(0, 0, protocol.Store, 0x70, func() { done++ })
	e.Access(5, 0, protocol.Store, 0x70, func() { done++ })
	run(t, kern, e)
	if done != 2 {
		t.Fatalf("completed %d/2 writes", done)
	}
	if v := e.LatestVersion(0x70); v != 3 {
		t.Errorf("version = %d, want 3 (all writes serialized)", v)
	}
	owners := 0
	for n := 0; n < 8; n++ {
		if e.LineState(n, 0, 0x70) == cache.Dirty {
			owners++
		}
	}
	if owners != 1 {
		t.Errorf("dirty owners = %d, want exactly 1", owners)
	}
}

// TestReadsNeverRetryUnderWritePressure: with the use-once scheme, reads
// complete without squash-induced retries even under a write storm.
func TestReadsNeverRetryUnderWritePressure(t *testing.T) {
	kern, e := testEngine(t, config.Eager)
	reads := 0
	for i := 0; i < 30; i++ {
		w := i % 8
		e.Access(w, 0, protocol.Store, 0x80, nil)
		e.Access((w+3)%8, 1, protocol.Load, 0x80, func() { reads++ })
		if i%3 == 0 {
			kern.RunAll()
		}
	}
	run(t, kern, e)
	if reads != 30 {
		t.Fatalf("completed %d/30 reads", reads)
	}
}

// TestDirtyDataNeverLostOnWriteSquash: two writes race for a dirty line;
// whatever the squash order, the final version reflects both writes and
// memory is never left stale once the line is uncached.
func TestDirtyDataNeverLostOnWriteSquash(t *testing.T) {
	for seed := 0; seed < 6; seed++ {
		kern, e := testEngine(t, config.SupersetAgg)
		e.Access(seed%8, 0, protocol.Store, 0x90, nil)
		kern.RunAll()
		e.Access((seed+2)%8, 0, protocol.Store, 0x90, nil)
		e.Access((seed+5)%8, 0, protocol.Store, 0x90, nil)
		run(t, kern, e) // drain check verifies the no-lost-write invariant
		if v := e.LatestVersion(0x90); v != 3 {
			t.Errorf("seed %d: version = %d, want 3", seed, v)
		}
	}
}

// TestEvictionWritebackAndMarking fills one L2 set past its associativity
// to force evictions, checking dirty write-back and the masterless-sharer
// marking for shared-capable victims.
func TestEvictionWritebackAndMarking(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	// L2: 1024 sets, 8 ways. Addresses k<<10 all land in set 0 of core 0
	// at node 0.
	addr := func(k int) cache.LineAddr { return cache.LineAddr(k) << 10 }

	// Fill 8 ways with dirty lines, then overflow.
	for k := 0; k < 9; k++ {
		e.Access(0, 0, protocol.Store, addr(k), nil)
		kern.RunAll()
	}
	s := e.Stats()
	if s.Writebacks == 0 {
		t.Fatal("overflowing a set with dirty lines produced no write-back")
	}
	// The LRU victim (addr 0) left core 0 and its data reached memory.
	if st := e.LineState(0, 0, addr(0)); st != cache.Invalid {
		t.Fatalf("victim state = %v, want I", st)
	}
	if v := e.MemVersion(addr(0)); v != 1 {
		t.Fatalf("memory version of victim = %d, want 1 (write-back)", v)
	}
	// Re-reading the evicted dirty line gets the written data from memory.
	done := false
	e.Access(3, 0, protocol.Load, addr(0), func() { done = true })
	run(t, kern, e)
	if !done {
		t.Fatal("re-read never completed")
	}
	if got := e.LineState(3, 0, addr(0)); !got.Valid() {
		t.Fatalf("re-read did not install: %v", got)
	}
}

// TestSGEvictionBlocksExclusive: evicting an S_G master while plain-S
// copies survive must prevent later E grants (the sharers have no master
// to invalidate them through a silent write).
func TestSGEvictionBlocksExclusive(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	line := cache.LineAddr(7) << 10 // set 0 at core 0
	// node0/core0 becomes SG master via sharing with node 4.
	e.Access(0, 0, protocol.Load, line, nil)
	kern.RunAll()
	e.Access(4, 0, protocol.Load, line, nil)
	kern.RunAll()
	if st := e.LineState(0, 0, line); st != cache.SharedGlobal {
		t.Fatalf("master state = %v, want SG", st)
	}
	// Evict the SG master by overflowing its set with other lines.
	for k := 20; k < 29; k++ {
		e.Access(0, 0, protocol.Load, cache.LineAddr(k)<<10, nil)
		kern.RunAll()
	}
	if st := e.LineState(0, 0, line); st != cache.Invalid {
		t.Skipf("SG master survived the eviction pressure (state %v)", st)
	}
	// node 4 still holds S_L... its copy remains; a third node's read must
	// not be granted E while that copy exists.
	e.Access(6, 0, protocol.Load, line, nil)
	run(t, kern, e)
	if st := e.LineState(6, 0, line); st == cache.Exclusive {
		t.Error("E granted while a surviving copy exists after master eviction")
	}
}

// TestSubsetFalseNegativeAtSupplier: when the Subset predictor has lost
// the supplier's entry (conflict eviction), the supplier node uses
// ForwardThenSnoop — the snoop still finds the line (correctness is
// preserved), but the raced-ahead request makes downstream nodes snoop
// too: the paper's "Lazy + alpha x FN" term.
func TestSubsetFalseNegativeAtSupplier(t *testing.T) {
	kern := sim.NewKernel()
	pol := core.NewPolicy(config.Subset)
	// A degenerate 2-entry predictor that forgets quickly.
	tiny := config.PredictorConfig{Kind: config.PredictorSubset, Name: "tiny", Entries: 2, Assoc: 2, AccessCycles: 2}
	e, err := protocol.NewEngine(kern, protocol.Options{
		Machine: config.DefaultMachine(), Predictor: tiny,
		PolicyFor: func(int) core.Policy { return pol },
		Energy:    energy.DefaultParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	armChecker(t, kern, e)
	// Node 0 acquires three supplier lines; the 2-entry predictor loses
	// at least one (Subset evicts silently — no downgrade).
	lines := []cache.LineAddr{0x200, 0x202, 0x204}
	for _, a := range lines {
		e.Access(0, 0, protocol.Load, a, nil)
		kern.RunAll()
	}
	// All three remain cached in supplier states (plenty of L2 room);
	// the 2-entry predictor kept at most two of them.
	for _, a := range lines {
		if !e.LineState(0, 0, a).GlobalSupplier() {
			t.Fatalf("line %#x lost its supplier state", a)
		}
	}
	// Accuracy before: count remote reads for each line and find one that
	// classified a false negative at the supplier.
	base := e.Stats()
	done := 0
	for _, a := range lines {
		e.Access(4, 0, protocol.Load, a, func() { done++ })
		kern.RunAll()
	}
	if done != 3 {
		t.Fatalf("completed %d/3 reads", done)
	}
	s := e.Stats().Sub(base)
	// All three reads were cache-supplied despite any false negatives.
	if s.CacheSupplies != 3 {
		t.Errorf("CacheSupplies = %d, want 3 (false negatives must not lose the supplier)", s.CacheSupplies)
	}
	if s.Accuracy.FalseNeg == 0 {
		t.Errorf("tiny subset predictor produced no false negatives over 3 supplier probes")
	}
	// A false negative at the supplier lets the request race past it:
	// more snoops than the 3 x 4-hop distance a perfect Subset would do.
	if s.ReadSnoopOps <= 12 {
		t.Errorf("ReadSnoopOps = %d, want > 12 (extra snoops past the supplier)", s.ReadSnoopOps)
	}
	if err := checker.New(e).CheckDrained(); err != nil {
		t.Fatal(err)
	}
}
