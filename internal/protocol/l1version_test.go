package protocol_test

import (
	"testing"

	"flexsnoop/internal/cache"
	"flexsnoop/internal/config"
	"flexsnoop/internal/protocol"
)

// TestUpgradedLineFillsL1WithItsOwnVersion: a write upgrade that completes
// while the line sits below MRU in its L2 set must fill L1 with the
// line's new write generation, so a later L1 read observes the latest
// write and not the version of the line that shared its set slot.
func TestUpgradedLineFillsL1WithItsOwnVersion(t *testing.T) {
	kern, e := testEngine(t, config.Lazy)
	// A, C and D share one L2 set (1,024 sets) and one L1 set (128).
	const a, c, d cache.LineAddr = 0x100, 0x500, 0x900
	var lastRead uint64
	e.SetObserver(func(node, core int, write bool, addr cache.LineAddr, v uint64) {
		if node == 0 && core == 0 && !write && addr == a {
			lastRead = v
		}
	})
	e.Access(1, 0, protocol.Load, a, nil) // node 1 holds A
	e.Access(0, 1, protocol.Load, d, nil) // core (0,1) can supply D locally
	kern.RunAll()
	e.Access(0, 0, protocol.Load, a, nil) // A shared at (0,0)
	kern.RunAll()
	e.Access(0, 0, protocol.Load, c, nil)
	kern.RunAll()
	// The store moves A to MRU and starts a ring upgrade; D arrives
	// from core (0,1) before the upgrade completes, pushing A down.
	e.Access(0, 0, protocol.Store, a, nil)
	kern.Schedule(kern.Now()+100, func() { e.Access(0, 0, protocol.Load, d, nil) })
	kern.RunAll()
	if st := e.LineState(0, 0, a); st != cache.Dirty {
		t.Fatalf("A at (0,0) is %v after the store, want D", st)
	}
	e.Access(0, 0, protocol.Load, a, nil)
	run(t, kern, e)
	if want := e.LatestVersion(a); lastRead != want {
		t.Errorf("read of A after its write observed version %d, want %d", lastRead, want)
	}
}
