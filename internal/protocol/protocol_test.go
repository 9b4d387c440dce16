package protocol_test

import (
	"math/rand"
	"testing"

	"flexsnoop/internal/cache"
	"flexsnoop/internal/checker"
	"flexsnoop/internal/config"
	"flexsnoop/internal/core"
	"flexsnoop/internal/energy"
	"flexsnoop/internal/protocol"
	"flexsnoop/internal/ring"
	"flexsnoop/internal/sim"
)

// testEngine builds an engine with the Section 6.1 predictor for the
// algorithm and the invariant checker armed on every retire.
func testEngine(t *testing.T, alg config.Algorithm) (*sim.Kernel, *protocol.Engine) {
	t.Helper()
	kern := sim.NewKernel()
	pol := core.NewPolicy(alg)
	e, err := protocol.NewEngine(kern, protocol.Options{
		Machine:   config.DefaultMachine(),
		Predictor: config.DefaultPredictorFor(alg),
		PolicyFor: func(int) core.Policy { return pol },
		Energy:    energy.DefaultParams(),
	})
	if err != nil {
		t.Fatalf("NewEngine(%v): %v", alg, err)
	}
	armChecker(t, kern, e)
	return kern, e
}

// armChecker runs the invariant checker at the end of every cycle in
// which a transaction retired, so a check follows every retire before
// the clock advances. A violation stops the kernel; the test fails on it
// when it ends, whatever it asserted meanwhile.
func armChecker(t *testing.T, kern *sim.Kernel, e *protocol.Engine) {
	t.Helper()
	checker.New(e).Arm(kern, 1, 0)
	t.Cleanup(func() {
		if err := e.Failure(); err != nil {
			t.Errorf("in-run check: %v", err)
		}
	})
}

// run drives the kernel dry and verifies the machine drained cleanly.
func run(t *testing.T, kern *sim.Kernel, e *protocol.Engine) {
	t.Helper()
	kern.RunAll()
	if err := checker.New(e).CheckDrained(); err != nil {
		t.Fatalf("drain check: %v", err)
	}
}

func TestReadFromMemoryInstallsExclusive(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	done := false
	e.Access(0, 0, protocol.Load, 0x100, func() { done = true })
	run(t, kern, e)
	if !done {
		t.Fatal("load never completed")
	}
	if st := e.LineState(0, 0, 0x100); st != cache.Exclusive {
		t.Errorf("state = %v, want E (all nodes snooped, no sharer)", st)
	}
	s := e.Stats()
	if s.ReadRequests != 1 {
		t.Errorf("ReadRequests = %d, want 1", s.ReadRequests)
	}
	if s.ReadSnoopOps != 7 {
		t.Errorf("Lazy snoops = %d, want 7 (all other nodes, no supplier)", s.ReadSnoopOps)
	}
	if s.MemorySupplies != 1 {
		t.Errorf("MemorySupplies = %d, want 1", s.MemorySupplies)
	}
}

func TestCacheToCacheTransfer(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	e.Access(0, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	done := false
	e.Access(4, 0, protocol.Load, 0x100, func() { done = true })
	run(t, kern, e)
	if !done {
		t.Fatal("second load never completed")
	}
	if st := e.LineState(0, 0, 0x100); st != cache.SharedGlobal {
		t.Errorf("supplier state = %v, want SG (E downgrades on supply)", st)
	}
	if st := e.LineState(4, 0, 0x100); st != cache.SharedLocal {
		t.Errorf("reader state = %v, want SL", st)
	}
	s := e.Stats()
	if s.CacheSupplies != 1 {
		t.Errorf("CacheSupplies = %d, want 1", s.CacheSupplies)
	}
	if s.MemorySupplies != 1 {
		t.Errorf("MemorySupplies = %d, want 1 (only the first read)", s.MemorySupplies)
	}
	// Lazy snoops until the supplier: node 0 is 4 hops from node 4's
	// request (4->5->6->7->0), so 4 snoops for the second read.
	if s.ReadSnoopOps != 7+4 {
		t.Errorf("ReadSnoopOps = %d, want 11", s.ReadSnoopOps)
	}
}

func TestLocalSupplyWithinCMP(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	e.Access(2, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	done := false
	e.Access(2, 1, protocol.Load, 0x100, func() { done = true })
	run(t, kern, e)
	if !done {
		t.Fatal("local load never completed")
	}
	s := e.Stats()
	if s.LocalSupplies != 1 {
		t.Errorf("LocalSupplies = %d, want 1", s.LocalSupplies)
	}
	if s.ReadRequests != 1 {
		t.Errorf("ReadRequests = %d, want 1 (second read stays on-chip)", s.ReadRequests)
	}
	// Supplier keeps master roles: E -> SG; the reader gets plain S.
	if st := e.LineState(2, 0, 0x100); st != cache.SharedGlobal {
		t.Errorf("supplier state = %v, want SG", st)
	}
	if st := e.LineState(2, 1, 0x100); st != cache.Shared {
		t.Errorf("reader state = %v, want S", st)
	}
}

func TestWriteInvalidatesRemoteSharers(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	e.Access(0, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	e.Access(3, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	done := false
	e.Access(3, 0, protocol.Store, 0x100, func() { done = true })
	run(t, kern, e)
	if !done {
		t.Fatal("store never completed")
	}
	if st := e.LineState(3, 0, 0x100); st != cache.Dirty {
		t.Errorf("writer state = %v, want D", st)
	}
	if st := e.LineState(0, 0, 0x100); st != cache.Invalid {
		t.Errorf("old supplier state = %v, want I", st)
	}
	if v := e.LatestVersion(0x100); v != 1 {
		t.Errorf("version = %d, want 1", v)
	}
}

func TestWriteMissClaimsDirtyData(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	e.Access(0, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	e.Access(0, 0, protocol.Store, 0x100, nil) // silent E->D upgrade
	kern.RunAll()
	if st := e.LineState(0, 0, 0x100); st != cache.Dirty {
		t.Fatalf("precondition: state = %v, want D", st)
	}
	done := false
	e.Access(5, 0, protocol.Store, 0x100, func() { done = true })
	run(t, kern, e)
	if !done {
		t.Fatal("write miss never completed")
	}
	if st := e.LineState(5, 0, 0x100); st != cache.Dirty {
		t.Errorf("new owner state = %v, want D", st)
	}
	if st := e.LineState(0, 0, 0x100); st != cache.Invalid {
		t.Errorf("old owner state = %v, want I", st)
	}
	if v := e.LatestVersion(0x100); v != 2 {
		t.Errorf("version = %d, want 2", v)
	}
}

func TestSilentUpgradeOnExclusive(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	e.Access(0, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	before := e.Stats().WriteRequests
	e.Access(0, 0, protocol.Store, 0x100, nil)
	run(t, kern, e)
	if after := e.Stats().WriteRequests; after != before {
		t.Errorf("silent E->D upgrade issued a ring transaction")
	}
	if st := e.LineState(0, 0, 0x100); st != cache.Dirty {
		t.Errorf("state = %v, want D", st)
	}
}

func TestDirtySharingUsesTaggedState(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	e.Access(0, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	e.Access(0, 0, protocol.Store, 0x100, nil)
	kern.RunAll()
	// A remote read of a dirty line: supplier D -> T, reader SL.
	e.Access(6, 0, protocol.Load, 0x100, nil)
	run(t, kern, e)
	if st := e.LineState(0, 0, 0x100); st != cache.Tagged {
		t.Errorf("dirty supplier state = %v, want T", st)
	}
	if st := e.LineState(6, 0, 0x100); st != cache.SharedLocal {
		t.Errorf("reader state = %v, want SL", st)
	}
}

func TestUpgradeRaceSquashesOne(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	// Share the line at two nodes.
	e.Access(0, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	e.Access(4, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	// Both write concurrently.
	done0, done4 := false, false
	e.Access(0, 0, protocol.Store, 0x100, func() { done0 = true })
	e.Access(4, 0, protocol.Store, 0x100, func() { done4 = true })
	run(t, kern, e)
	if !done0 || !done4 {
		t.Fatalf("stores incomplete: node0=%v node4=%v", done0, done4)
	}
	if v := e.LatestVersion(0x100); v != 2 {
		t.Errorf("version = %d, want 2 (both writes serialized)", v)
	}
	// Exactly one node may end with the dirty line.
	d0 := e.LineState(0, 0, 0x100) == cache.Dirty
	d4 := e.LineState(4, 0, 0x100) == cache.Dirty
	if d0 == d4 {
		t.Errorf("dirty ownership: node0=%v node4=%v, want exactly one", d0, d4)
	}
}

func TestConcurrentReadsSingleSupplier(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	var completed int
	for n := 0; n < 8; n++ {
		e.Access(n, 0, protocol.Load, 0x200, func() { completed++ })
	}
	run(t, kern, e)
	if completed != 8 {
		t.Fatalf("completed %d/8 loads", completed)
	}
	suppliers, copies := 0, 0
	for n := 0; n < 8; n++ {
		st := e.LineState(n, 0, 0x200)
		if st.GlobalSupplier() {
			suppliers++
		}
		if st.Valid() {
			copies++
		}
	}
	// Crossing reads demote their memory grants to plain Shared, so at
	// most one master may remain — never two.
	if suppliers > 1 {
		t.Errorf("global suppliers = %d, want at most 1", suppliers)
	}
	if copies != 8 {
		t.Errorf("copies = %d, want 8 (every reader keeps the line)", copies)
	}
}

func TestReadWriteRace(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	e.Access(0, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	ok := 0
	e.Access(2, 0, protocol.Load, 0x100, func() { ok++ })
	e.Access(6, 0, protocol.Store, 0x100, func() { ok++ })
	run(t, kern, e)
	if ok != 2 {
		t.Fatalf("completed %d/2 accesses", ok)
	}
	if v := e.LatestVersion(0x100); v != 1 {
		t.Errorf("version = %d, want 1", v)
	}
}

func TestEagerSnoopsEveryNode(t *testing.T) {
	kern, e := testEngine(t, config.Eager)
	e.Access(0, 0, protocol.Load, 0x108, nil) // home node 0: local memory
	run(t, kern, e)
	s := e.Stats()
	if s.ReadSnoopOps != 7 {
		t.Errorf("Eager snoops = %d, want 7", s.ReadSnoopOps)
	}
	// Eager splits at the first node: 2N-1 = 15 read segments.
	if s.ReadRingSegments != 15 {
		t.Errorf("Eager read segments = %d, want 15", s.ReadRingSegments)
	}
}

func TestLazySegments(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	e.Access(0, 0, protocol.Load, 0x108, nil)
	run(t, kern, e)
	if s := e.Stats(); s.ReadRingSegments != 8 {
		t.Errorf("Lazy read segments = %d, want 8 (one combined circuit)", s.ReadRingSegments)
	}
}

func TestOracleSnoopsOnlySupplier(t *testing.T) {
	kern, e := testEngine(t, config.Oracle)
	e.Access(0, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	s0 := e.Stats()
	if s0.ReadSnoopOps != 0 {
		t.Errorf("Oracle snoops with no supplier = %d, want 0", s0.ReadSnoopOps)
	}
	e.Access(4, 0, protocol.Load, 0x100, nil)
	run(t, kern, e)
	s := e.Stats()
	if s.ReadSnoopOps != 1 {
		t.Errorf("Oracle snoops = %d, want 1 (supplier only)", s.ReadSnoopOps)
	}
	if s.ReadRingSegments != 16 {
		t.Errorf("Oracle segments = %d, want 16 (two combined circuits)", s.ReadRingSegments)
	}
}

func TestSupersetConCombinedMessages(t *testing.T) {
	kern, e := testEngine(t, config.SupersetCon)
	e.Access(0, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	e.Access(4, 0, protocol.Load, 0x100, nil)
	run(t, kern, e)
	s := e.Stats()
	// SupersetCon never splits: exactly one circuit per request.
	if s.ReadRingSegments != 16 {
		t.Errorf("SupersetCon segments = %d, want 16", s.ReadRingSegments)
	}
	// Second request snooped exactly at the supplier (no aliasing in a
	// near-empty Bloom filter).
	if s.ReadSnoopOps != 1 {
		t.Errorf("SupersetCon snoops = %d, want 1", s.ReadSnoopOps)
	}
}

func TestSupersetAggFindsSupplier(t *testing.T) {
	kern, e := testEngine(t, config.SupersetAgg)
	e.Access(0, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	done := false
	e.Access(4, 0, protocol.Load, 0x100, func() { done = true })
	run(t, kern, e)
	if !done {
		t.Fatal("read never completed")
	}
	s := e.Stats()
	if s.CacheSupplies != 1 {
		t.Errorf("CacheSupplies = %d, want 1", s.CacheSupplies)
	}
	if s.ReadSnoopOps != 1 {
		t.Errorf("SupersetAgg snoops = %d, want 1", s.ReadSnoopOps)
	}
}

func TestSubsetSnoopsUntilSupplier(t *testing.T) {
	kern, e := testEngine(t, config.Subset)
	e.Access(0, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	e.Access(4, 0, protocol.Load, 0x100, nil)
	run(t, kern, e)
	s := e.Stats()
	// Subset snoops every node up to the supplier (4 hops from node 4),
	// plus the first request's 7.
	if s.ReadSnoopOps != 7+4 {
		t.Errorf("Subset snoops = %d, want 11", s.ReadSnoopOps)
	}
}

func TestExactDowngradesUnderPressure(t *testing.T) {
	kern := sim.NewKernel()
	pol := core.NewPolicy(config.Exact)
	cfg := config.DefaultMachine()
	pred := config.PredictorConfig{Kind: config.PredictorExact, Name: "tiny", Entries: 16, Assoc: 2, AccessCycles: 2}
	e, err := protocol.NewEngine(kern, protocol.Options{
		Machine: cfg, Predictor: pred,
		PolicyFor: func(int) core.Policy { return pol },
		Energy:    energy.DefaultParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	armChecker(t, kern, e)
	// Node 0 accumulates far more supplier lines than predictor entries.
	for i := 0; i < 200; i++ {
		addr := cache.LineAddr(0x1000 + i*8)
		e.Access(0, i%4, protocol.Load, addr, nil)
		kern.RunAll()
		if i%3 == 0 {
			e.Access(0, i%4, protocol.Store, addr, nil)
			kern.RunAll()
		}
	}
	if err := checker.New(e).CheckDrained(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Downgrades == 0 {
		t.Error("overfull Exact predictor forced no downgrades")
	}
	if s.DowngradeWritebacks == 0 {
		t.Error("no dirty downgrades wrote back")
	}
}

func TestMSHRMergesSameLineRequests(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	completed := 0
	// Two cores of the same CMP miss on the same line concurrently.
	e.Access(1, 0, protocol.Load, 0x300, func() { completed++ })
	e.Access(1, 1, protocol.Load, 0x300, func() { completed++ })
	run(t, kern, e)
	if completed != 2 {
		t.Fatalf("completed %d/2", completed)
	}
	if s := e.Stats(); s.ReadRequests != 1 {
		t.Errorf("ReadRequests = %d, want 1 (second core piggybacks)", s.ReadRequests)
	}
}

func TestPerCoreL2sArePrivate(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	e.Access(0, 0, protocol.Load, 0x100, nil)
	run(t, kern, e)
	if st := e.LineState(0, 1, 0x100); st != cache.Invalid {
		t.Errorf("core 1 state = %v, want I (caches are private)", st)
	}
}

func TestWriteToSharedDirtyLine(t *testing.T) {
	// T-state writer upgrade: writer holds S, supplier holds T. The
	// upgrade invalidates the T copy without losing data (coherent copy).
	kern, e := testEngine(t, config.Lazy)
	e.Access(0, 0, protocol.Load, 0x100, nil)
	kern.RunAll()
	e.Access(0, 0, protocol.Store, 0x100, nil)
	kern.RunAll()
	e.Access(4, 0, protocol.Load, 0x100, nil) // D->T at node 0, SL at node 4
	kern.RunAll()
	e.Access(4, 0, protocol.Store, 0x100, nil) // upgrade from SL
	run(t, kern, e)
	if st := e.LineState(4, 0, 0x100); st != cache.Dirty {
		t.Errorf("writer state = %v, want D", st)
	}
	if st := e.LineState(0, 0, 0x100); st != cache.Invalid {
		t.Errorf("old T holder = %v, want I", st)
	}
	if v := e.LatestVersion(0x100); v != 2 {
		t.Errorf("version = %d, want 2", v)
	}
}

// TestRandomStressAllAlgorithms hammers every algorithm with a seeded
// random access mix while checking every invariant after every
// transaction completion.
func TestRandomStressAllAlgorithms(t *testing.T) {
	algs := append(config.Algorithms(), config.DynamicSuperset)
	for _, alg := range algs {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			kern, e := testEngine(t, alg)
			rng := rand.New(rand.NewSource(7))
			issued, completed := 0, 0
			for i := 0; i < 600; i++ {
				node := rng.Intn(8)
				c := rng.Intn(4)
				addr := cache.LineAddr(rng.Intn(48)) // hot: force races
				kind := protocol.Load
				if rng.Intn(3) == 0 {
					kind = protocol.Store
				}
				issued++
				e.Access(node, c, kind, addr, func() { completed++ })
				// Burst in small groups to create real concurrency.
				if rng.Intn(4) == 0 {
					kern.RunAll()
				}
			}
			run(t, kern, e)
			if completed != issued {
				t.Fatalf("completed %d/%d accesses", completed, issued)
			}
		})
	}
}

// TestStressWiderAddressSpace exercises evictions and write-backs.
func TestStressWiderAddressSpace(t *testing.T) {
	kern, e := testEngine(t, config.SupersetAgg)
	rng := rand.New(rand.NewSource(11))
	issued, completed := 0, 0
	for i := 0; i < 800; i++ {
		node := rng.Intn(8)
		c := rng.Intn(4)
		addr := cache.LineAddr(rng.Intn(1 << 14))
		kind := protocol.Load
		if rng.Intn(4) == 0 {
			kind = protocol.Store
		}
		issued++
		e.Access(node, c, kind, addr, func() { completed++ })
		if rng.Intn(8) == 0 {
			kern.RunAll()
		}
	}
	run(t, kern, e)
	if completed != issued {
		t.Fatalf("completed %d/%d", completed, issued)
	}
}

func TestWriteDecouplingSegments(t *testing.T) {
	// Eager-class algorithms split write snoops (request + reply); the
	// Lazy class sends one combined circuit (Section 5.3).
	segs := func(alg config.Algorithm) uint64 {
		kern, e := testEngine(t, alg)
		e.Access(0, 0, protocol.Store, 0x108, nil) // miss: full write circuit
		run(t, kern, e)
		s := e.Stats()
		return s.RingSegments - s.ReadRingSegments
	}
	if got := segs(config.Lazy); got != 8 {
		t.Errorf("Lazy write segments = %d, want 8", got)
	}
	if got := segs(config.Eager); got != 15 {
		t.Errorf("Eager write segments = %d, want 15", got)
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	s := protocol.Stats{ReadRequests: 4, ReadSnoopOps: 14, ReadRingSegments: 32,
		ReadMissCycles: 1000, ReadMissCount: 4}
	if got := s.SnoopsPerReadRequest(); got != 3.5 {
		t.Errorf("SnoopsPerReadRequest = %v, want 3.5", got)
	}
	if got := s.ReadSegmentsPerRequest(); got != 8 {
		t.Errorf("ReadSegmentsPerRequest = %v, want 8", got)
	}
	if got := s.AvgReadMissLatency(); got != 250 {
		t.Errorf("AvgReadMissLatency = %v, want 250", got)
	}
	var zero protocol.Stats
	if zero.SnoopsPerReadRequest() != 0 || zero.ReadSegmentsPerRequest() != 0 || zero.AvgReadMissLatency() != 0 {
		t.Error("zero stats should produce zero metrics")
	}
}

var _ = ring.ReadSnoop // keep the import for documentation-value constants

func TestHistBuckets(t *testing.T) {
	cases := map[uint64]int{0: 0, 63: 0, 64: 1, 127: 1, 128: 2, 1023: 4, 1024: 5, 65535: 10, 65536: 11, 1 << 30: 11}
	for lat, want := range cases {
		if got := protocol.HistBucket(lat); got != want {
			t.Errorf("HistBucket(%d) = %d, want %d", lat, got, want)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 12; i++ {
		l := protocol.HistBucketLabel(i)
		if l == "" || seen[l] {
			t.Errorf("bucket %d label %q empty/duplicate", i, l)
		}
		seen[l] = true
	}
}

func TestStatsSub(t *testing.T) {
	var a, b protocol.Stats
	a.ReadRequests, b.ReadRequests = 10, 4
	a.Accuracy.TruePos, b.Accuracy.TruePos = 7, 2
	a.ReadMissHist[3], b.ReadMissHist[3] = 9, 5
	d := a.Sub(b)
	if d.ReadRequests != 6 || d.Accuracy.TruePos != 5 || d.ReadMissHist[3] != 4 {
		t.Errorf("Sub = %+v", d)
	}
}
