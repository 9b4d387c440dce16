package memory

import (
	"testing"

	"flexsnoop/internal/cache"
	"flexsnoop/internal/config"
)

// unbounded is a line bound large enough that every table starts at its
// full default size.
const unbounded = 1 << 20

func newCtrl(node int) *Controller {
	return NewController(node, config.DefaultMachine(), unbounded)
}

func TestHomeNodeInterleaving(t *testing.T) {
	for a := cache.LineAddr(0); a < 32; a++ {
		if got := HomeNode(a, 8); got != int(a%8) {
			t.Errorf("HomeNode(%d) = %d", a, got)
		}
	}
}

func TestLocalReadLatency(t *testing.T) {
	c := newCtrl(3)
	if got := c.ReadLatency(0, 3, 3); got != 350 {
		t.Errorf("local RT = %d, want 350 (Table 4)", got)
	}
}

func TestRemoteReadWithoutPrefetch(t *testing.T) {
	c := newCtrl(0)
	if got := c.ReadLatency(0, 8, 5); got != 710 {
		t.Errorf("remote RT without prefetch = %d, want 710", got)
	}
	if c.PrefetchMiss != 1 {
		t.Errorf("PrefetchMiss = %d, want 1", c.PrefetchMiss)
	}
}

func TestRemoteReadWithPrefetch(t *testing.T) {
	c := newCtrl(0)
	c.NotifySnoop(1000, 8)
	// Request arrives well after the 300-cycle DRAM prefetch completes.
	if got := c.ReadLatency(2000, 8, 5); got != 312 {
		t.Errorf("prefetched remote RT = %d, want 312", got)
	}
	if c.PrefetchHits != 1 {
		t.Errorf("PrefetchHits = %d, want 1", c.PrefetchHits)
	}
	// The entry is consumed: a second read misses.
	if got := c.ReadLatency(3000, 8, 5); got != 710 {
		t.Errorf("second read RT = %d, want 710", got)
	}
}

func TestPrefetchStillInFlight(t *testing.T) {
	c := newCtrl(0)
	c.NotifySnoop(1000, 8) // ready at 1300
	got := c.ReadLatency(1100, 8, 5)
	if got != 312+200 {
		t.Errorf("in-flight prefetch RT = %d, want 512 (312 + 200 residual)", got)
	}
}

func TestPrefetchDisabled(t *testing.T) {
	cfg := config.DefaultMachine()
	cfg.PrefetchOnSnoop = false
	c := NewController(0, cfg, unbounded)
	c.NotifySnoop(0, 8)
	if c.Prefetches != 0 {
		t.Error("disabled prefetch still buffered")
	}
	if got := c.ReadLatency(100, 8, 5); got != 710 {
		t.Errorf("RT = %d, want 710 with prefetch off", got)
	}
}

func TestPrefetchBufferBounded(t *testing.T) {
	cfg := config.DefaultMachine()
	cfg.PrefetchBufferEntries = 2
	c := NewController(0, cfg, unbounded)
	c.NotifySnoop(0, 8)
	c.NotifySnoop(0, 16)
	c.NotifySnoop(0, 24) // evicts 8
	if c.PrefetchEvict != 1 {
		t.Errorf("PrefetchEvict = %d, want 1", c.PrefetchEvict)
	}
	if got := c.ReadLatency(5000, 8, 5); got != 710 {
		t.Errorf("evicted line RT = %d, want 710", got)
	}
	// Well after the first access drained the DRAM channel.
	if got := c.ReadLatency(9000, 16, 5); got != 312 {
		t.Errorf("retained line RT = %d, want 312", got)
	}
}

func TestDuplicateSnoopKeepsOneEntry(t *testing.T) {
	c := newCtrl(0)
	c.NotifySnoop(0, 8)
	c.NotifySnoop(50, 8)
	if c.Prefetches != 1 {
		t.Errorf("Prefetches = %d, want 1 (dedup)", c.Prefetches)
	}
}

func TestDRAMChannelQueueing(t *testing.T) {
	c := newCtrl(0)
	// Back-to-back reads at the same instant queue on the DRAM channel
	// (36-cycle line occupancy at 10.7 GB/s).
	if got := c.ReadLatency(0, 8, 5); got != 710 {
		t.Fatalf("first RT = %d, want 710", got)
	}
	if got := c.ReadLatency(0, 16, 5); got != 710+36 {
		t.Errorf("second RT = %d, want 746 (one occupancy of queueing)", got)
	}
	if got := c.ReadLatency(0, 24, 5); got != 710+72 {
		t.Errorf("third RT = %d, want 782", got)
	}
	if c.QueueCycles() != 36+72 {
		t.Errorf("QueueCycles = %d, want 108", c.QueueCycles())
	}
}

func TestWriteBackVersions(t *testing.T) {
	c := newCtrl(0)
	if c.Version(8) != 0 {
		t.Error("fresh line should be at version 0")
	}
	c.WriteBack(8, 5)
	if c.Version(8) != 5 {
		t.Errorf("Version = %d, want 5", c.Version(8))
	}
	// Stale (out-of-order) write-backs never regress the version.
	c.WriteBack(8, 3)
	if c.Version(8) != 5 {
		t.Errorf("stale write-back regressed version to %d", c.Version(8))
	}
	if c.Writes != 2 {
		t.Errorf("Writes = %d, want 2", c.Writes)
	}
}
