package predictor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexsnoop/internal/cache"
	"flexsnoop/internal/config"
)

// unbounded is a line bound large enough that every table starts at its
// full default size.
const unbounded = 1 << 20

func TestNewFromConfig(t *testing.T) {
	oracle := func(cache.LineAddr) bool { return false }
	cases := []struct {
		cfg  config.PredictorConfig
		kind config.PredictorKind
	}{
		{config.Sub2k(), config.PredictorSubset},
		{config.SupY2k(), config.PredictorSuperset},
		{config.Exa2k(), config.PredictorExact},
		{config.Perfect(), config.PredictorPerfect},
	}
	for _, tc := range cases {
		p := New(tc.cfg, unbounded, unbounded, oracle)
		if p == nil {
			t.Fatalf("New(%s) returned nil", tc.cfg.Name)
		}
		if p.Kind() != tc.kind {
			t.Errorf("New(%s).Kind = %v, want %v", tc.cfg.Name, p.Kind(), tc.kind)
		}
	}
	if New(config.NoPredictor(), unbounded, unbounded, oracle) != nil {
		t.Error("New(NoPredictor) should return nil")
	}
}

func TestSubsetBasic(t *testing.T) {
	p := NewSubset(16, 4, unbounded)
	if p.Predict(1) {
		t.Error("empty predictor predicted positive")
	}
	p.Insert(1)
	if !p.Predict(1) {
		t.Error("inserted address predicted negative")
	}
	p.Remove(1)
	if p.Predict(1) {
		t.Error("removed address predicted positive")
	}
}

// TestSubsetNoFalsePositives is the defining property of Section 4.2: for
// any insert/remove sequence, a positive prediction implies the address is
// genuinely in the reference supplier set.
func TestSubsetNoFalsePositives(t *testing.T) {
	f := func(ops []uint16) bool {
		p := NewSubset(8, 2, unbounded) // tiny: force conflict evictions
		ref := map[cache.LineAddr]bool{}
		for _, op := range ops {
			addr := cache.LineAddr(op % 256)
			if op&0x8000 != 0 {
				if ref[addr] {
					p.Remove(addr)
					delete(ref, addr)
				}
			} else if !ref[addr] {
				p.Insert(addr)
				ref[addr] = true
			}
			if p.Predict(addr) && !ref[addr] {
				return false // false positive
			}
		}
		// Check over the whole universe too.
		for a := cache.LineAddr(0); a < 256; a++ {
			if p.Predict(a) && !ref[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSubsetFalseNegativesUnderPressure(t *testing.T) {
	p := NewSubset(8, 2, unbounded)
	// Insert far more supplier lines than the table holds.
	for a := cache.LineAddr(0); a < 64; a++ {
		p.Insert(a)
	}
	neg := 0
	for a := cache.LineAddr(0); a < 64; a++ {
		if !p.Predict(a) {
			neg++
		}
	}
	if neg == 0 {
		t.Error("overfull subset predictor produced no false negatives")
	}
	if p.Len() > 8 {
		t.Errorf("predictor holds %d entries, capacity 8", p.Len())
	}
}

// TestSupersetNoFalseNegatives is the defining property of Section 4.3.2:
// any genuinely tracked address must predict positive, for any
// insert/remove/false-positive-training sequence.
func TestSupersetNoFalseNegatives(t *testing.T) {
	f := func(ops []uint16) bool {
		p := NewSuperset([]uint{4, 3}, 8, 2, true, unbounded, unbounded) // tiny: force aliasing
		ref := map[cache.LineAddr]bool{}
		for _, op := range ops {
			addr := cache.LineAddr(op % 512)
			switch {
			case op&0x8000 != 0:
				if ref[addr] {
					p.Remove(addr)
					delete(ref, addr)
				}
			case op&0x4000 != 0:
				// Adversarial exclude-cache training attempts.
				if !ref[addr] {
					p.NoteFalsePositive(addr)
				}
			default:
				if !ref[addr] {
					p.Insert(addr)
					ref[addr] = true
				}
			}
		}
		for a := range ref {
			if !p.Predict(a) {
				return false // false negative: incorrect execution
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSupersetFalsePositivesFromAliasing(t *testing.T) {
	p := NewSuperset([]uint{3, 3}, 8, 2, false, unbounded, unbounded)
	// 0x41 aliases with {0x01, 0x40}: field0 = addr&7, field1 = (addr>>3)&7.
	p.Insert(0x01) // fields (1, 0)
	p.Insert(0x40) // fields (0, 8&7=0) -> (0,0)... choose clean aliases:
	p.Remove(0x40)
	p.Remove(0x01)
	p.Insert(0x09) // fields (1,1)
	p.Insert(0x0A) // fields (2,1)
	if !p.Predict(0x0A) || !p.Predict(0x09) {
		t.Fatal("tracked addresses predicted negative")
	}
	// 0x0? with field0=2,field1=1 is 0x0A itself; alias needs distinct
	// address with both counters set: 0x11 -> fields (1, 2): counter(2)
	// of field1 is 0, so negative. Construct a true alias: insert (1,1)
	// and (2,2); then (1,2) and (2,1) are false positives.
	p2 := NewSuperset([]uint{3, 3}, 8, 2, false, unbounded, unbounded)
	p2.Insert(0x09)        // (1,1)
	p2.Insert(0x12)        // (2,2)
	if !p2.Predict(0x0A) { // (2,1): aliased
		t.Error("expected aliasing false positive at 0x0A")
	}
	if !p2.Predict(0x11) { // (1,2): aliased
		t.Error("expected aliasing false positive at 0x11")
	}
}

func TestExcludeCacheSuppressesFalsePositives(t *testing.T) {
	p := NewSuperset([]uint{3, 3}, 8, 2, true, unbounded, unbounded)
	p.Insert(0x09) // (1,1)
	p.Insert(0x12) // (2,2)
	if !p.Predict(0x0A) {
		t.Fatal("expected aliasing false positive before training")
	}
	p.NoteFalsePositive(0x0A)
	if p.Predict(0x0A) {
		t.Error("exclude cache did not suppress trained false positive")
	}
	if p.Stats().ExcludeHits == 0 {
		t.Error("exclude hit not counted")
	}
	// The genuinely tracked addresses must still predict positive.
	if !p.Predict(0x09) || !p.Predict(0x12) {
		t.Error("exclude cache broke true positives")
	}
	// Inserting the excluded address must clear the exclusion.
	p.Insert(0x0A)
	if !p.Predict(0x0A) {
		t.Error("insert did not clear exclude-cache entry (false negative!)")
	}
}

func TestNoteFalsePositiveOnTrackedAddressIgnored(t *testing.T) {
	p := NewSuperset([]uint{3, 3}, 8, 2, true, unbounded, unbounded)
	p.Insert(0x09)
	p.NoteFalsePositive(0x09) // bogus: it IS tracked
	if !p.Predict(0x09) {
		t.Error("bogus false-positive training created a false negative")
	}
}

func TestSupersetRemoveWithoutInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unmatched Remove did not panic")
		}
	}()
	NewSuperset([]uint{3, 3}, 8, 2, false, unbounded, unbounded).Remove(5)
}

func TestBloomCounterUnderflowPanics(t *testing.T) {
	f := NewBloomFilter([]uint{4})
	f.Add(1)
	f.Del(1)
	defer func() {
		if recover() == nil {
			t.Error("bloom underflow did not panic")
		}
	}()
	f.Del(1)
}

func TestBloomFieldPartitioning(t *testing.T) {
	// Table 4 "y" filter: fields 10,4,7 bits → tables of 1024, 16, 128.
	f := NewBloomFilter([]uint{10, 4, 7})
	if got := f.SizeBits(); got != 1024+16+128 {
		t.Errorf("y-filter entries = %d, want 1168", got)
	}
	// Two addresses differing only above bit 21 share all counters.
	f.Add(0)
	if !f.MayContain(1 << 21) {
		t.Error("addresses identical in indexed bits should alias")
	}
	// Addresses differing in bit 0 use different field-0 counters.
	if f.MayContain(1) {
		t.Error("address differing in field 0 should not alias")
	}
}

func TestExactForcesDowngrades(t *testing.T) {
	p := NewExact(8, 2, unbounded)
	downgraded := map[cache.LineAddr]bool{}
	inPred := map[cache.LineAddr]bool{}
	for a := cache.LineAddr(0); a < 32; a++ {
		victim, must := p.Insert(a)
		inPred[a] = true
		if must {
			downgraded[victim] = true
			delete(inPred, victim)
		}
	}
	if len(downgraded) == 0 {
		t.Fatal("overfull exact predictor forced no downgrades")
	}
	if p.Stats().Downgrades != uint64(len(downgraded)) {
		t.Errorf("Downgrades stat = %d, want %d", p.Stats().Downgrades, len(downgraded))
	}
	// Exactness: predict(a) == (a in predictor set after downgrades).
	for a := cache.LineAddr(0); a < 32; a++ {
		if p.Predict(a) != inPred[a] {
			t.Errorf("exactness violated at %#x: predict=%v, in set=%v", a, p.Predict(a), inPred[a])
		}
	}
}

// TestExactIsExact: under random ops, with the caller honouring downgrade
// demands, Predict always equals reference membership — no false
// positives and no false negatives.
func TestExactIsExact(t *testing.T) {
	f := func(ops []uint16) bool {
		p := NewExact(8, 2, unbounded)
		ref := map[cache.LineAddr]bool{}
		for _, op := range ops {
			addr := cache.LineAddr(op % 128)
			if op&0x8000 != 0 {
				if ref[addr] {
					p.Remove(addr)
					delete(ref, addr)
				}
			} else if !ref[addr] {
				victim, must := p.Insert(addr)
				ref[addr] = true
				if must {
					// Protocol downgrades the victim: it leaves the
					// supplier set.
					delete(ref, victim)
				}
			}
		}
		for a := cache.LineAddr(0); a < 128; a++ {
			if p.Predict(a) != ref[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPerfectPredictor(t *testing.T) {
	truth := map[cache.LineAddr]bool{7: true}
	p := NewPerfect(func(a cache.LineAddr) bool { return truth[a] })
	if !p.Predict(7) || p.Predict(8) {
		t.Error("perfect predictor disagreed with oracle")
	}
	truth[8] = true
	if !p.Predict(8) {
		t.Error("perfect predictor did not track oracle mutation")
	}
	if p.Stats().Lookups != 3 {
		t.Errorf("lookups = %d, want 3", p.Stats().Lookups)
	}
}

func TestAccuracyClassification(t *testing.T) {
	var a Accuracy
	a.Classify(true, true)   // TP
	a.Classify(true, false)  // FP
	a.Classify(false, true)  // FN
	a.Classify(false, false) // TN
	a.Classify(false, false) // TN
	if a.TruePos != 1 || a.FalsePos != 1 || a.FalseNeg != 1 || a.TrueNeg != 2 {
		t.Errorf("classification counts wrong: %+v", a)
	}
	tp, tn, fp, fn := a.Fractions()
	if tp != 0.2 || tn != 0.4 || fp != 0.2 || fn != 0.2 {
		t.Errorf("fractions = %v %v %v %v", tp, tn, fp, fn)
	}
	var b Accuracy
	b.Add(a)
	b.Add(a)
	if b.Total() != 10 {
		t.Errorf("Add: total = %d, want 10", b.Total())
	}
	var empty Accuracy
	if tp, tn, fp, fn := empty.Fractions(); tp+tn+fp+fn != 0 {
		t.Error("empty accuracy fractions should be zero")
	}
}

func TestPredictorStatsCount(t *testing.T) {
	p := NewSubset(16, 4, unbounded)
	p.Predict(1)
	p.Insert(1)
	p.Predict(1)
	p.Remove(1)
	s := p.Stats()
	if s.Lookups != 2 || s.Inserts != 1 || s.Removes != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSupersetStress(t *testing.T) {
	// Long random churn with the real Table 4 geometry: no panics, no
	// false negatives, bounded tracked set.
	p := NewSuperset([]uint{10, 4, 7}, 2048, 8, true, unbounded, unbounded)
	rng := rand.New(rand.NewSource(3))
	live := map[cache.LineAddr]bool{}
	var liveList []cache.LineAddr
	for i := 0; i < 20000; i++ {
		if rng.Intn(2) == 0 || len(liveList) == 0 {
			addr := cache.LineAddr(rng.Intn(1 << 18))
			if !live[addr] {
				p.Insert(addr)
				live[addr] = true
				liveList = append(liveList, addr)
			}
		} else {
			j := rng.Intn(len(liveList))
			addr := liveList[j]
			p.Remove(addr)
			delete(live, addr)
			liveList[j] = liveList[len(liveList)-1]
			liveList = liveList[:len(liveList)-1]
		}
		if rng.Intn(4) == 0 {
			probe := cache.LineAddr(rng.Intn(1 << 18))
			got := p.Predict(probe)
			if live[probe] && !got {
				t.Fatalf("false negative at %#x after %d ops", probe, i)
			}
			if got && !live[probe] {
				p.NoteFalsePositive(probe)
			}
		}
	}
	if p.TrackedLen() != len(live) {
		t.Errorf("tracked %d, want %d", p.TrackedLen(), len(live))
	}
}

func TestBadGeometriesPanic(t *testing.T) {
	cases := []func(){
		func() { NewSubset(0, 4, unbounded) },
		func() { NewSubset(10, 4, unbounded) }, // not divisible
		func() { NewExact(0, 1, unbounded) },
		func() { NewSuperset(nil, 8, 2, false, unbounded, unbounded) },
		func() { NewSuperset([]uint{0}, 8, 2, false, unbounded, unbounded) },
		func() { NewSuperset([]uint{4}, 7, 2, true, unbounded, unbounded) },
		func() { NewPerfect(nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad geometry did not panic", i)
				}
			}()
			fn()
		}()
	}
}
