package cache

import (
	"math/rand"
	"testing"
)

// k packs (file, unit) into a key for the tests: any injective
// packing will do, since the cache only compares keys.
func k(f int32, u int64) Key { return Key(uint64(f)<<40 | uint64(u)) }

// Test file ids.
const (
	a int32 = iota
	b
)

func TestBasicHitMiss(t *testing.T) {
	c := New(2)
	if c.Touch(k(a, 0)) {
		t.Error("first touch hit")
	}
	if !c.Touch(k(a, 0)) {
		t.Error("second touch missed")
	}
	if c.Touch(k(a, 1)) {
		t.Error("new unit hit")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New(2)
	c.Touch(k(a, 0))
	c.Touch(k(a, 1))
	c.Touch(k(a, 0)) // 0 now MRU, 1 LRU
	c.Touch(k(a, 2)) // evicts 1
	if !c.Contains(k(a, 0)) {
		t.Error("unit 0 evicted")
	}
	if c.Contains(k(a, 1)) {
		t.Error("unit 1 survived")
	}
	if !c.Contains(k(a, 2)) {
		t.Error("unit 2 missing")
	}
}

func TestZeroCapacity(t *testing.T) {
	c := New(0)
	for i := 0; i < 5; i++ {
		if c.Touch(k(a, 0)) {
			t.Fatal("zero-capacity cache hit")
		}
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
	c = New(-3)
	if c.Cap() != 0 {
		t.Error("negative capacity not clamped")
	}
}

func TestDistinctFilesDistinctKeys(t *testing.T) {
	c := New(4)
	c.Touch(k(a, 0))
	if c.Touch(k(b, 0)) {
		t.Error("unit 0 of file b hit on file a's entry")
	}
}

func TestSequentialSweepMissesEveryUnitWhenLarger(t *testing.T) {
	// The workload property Table 2 relies on: an array much larger
	// than the cache misses on every unit in every sweep.
	c := New(8)
	const units = 100
	for sweep := 0; sweep < 3; sweep++ {
		for u := int64(0); u < units; u++ {
			if c.Touch(k(a, u)) {
				t.Fatalf("sweep %d unit %d unexpectedly hit", sweep, u)
			}
		}
	}
	_, misses := c.Stats()
	if misses != 300 {
		t.Errorf("misses = %d, want 300", misses)
	}
}

func TestRepeatedTouchesWithinUnitHit(t *testing.T) {
	// Consecutive element accesses within one stripe unit hit.
	c := New(8)
	miss := 0
	for i := 0; i < 1000; i++ {
		if !c.Touch(k(a, int64(i/250))) {
			miss++
		}
	}
	if miss != 4 {
		t.Errorf("misses = %d, want 4", miss)
	}
}

func TestReset(t *testing.T) {
	c := New(2)
	c.Touch(k(a, 0))
	c.Reset()
	if c.Len() != 0 {
		t.Error("len after reset")
	}
	h, m := c.Stats()
	if h != 0 || m != 0 {
		t.Error("stats after reset")
	}
	if c.Contains(k(a, 0)) {
		t.Error("contains after reset")
	}
}

func TestLRUInvariants(t *testing.T) {
	// Property: Len never exceeds capacity; hits+misses equals
	// touches; a touched key is always present afterwards (cap>0).
	rng := rand.New(rand.NewSource(42))
	c := New(16)
	touches := int64(0)
	for i := 0; i < 5000; i++ {
		key := k(int32(rng.Intn(3)), int64(rng.Intn(40)))
		c.Touch(key)
		touches++
		if c.Len() > c.Cap() {
			t.Fatalf("len %d exceeds cap %d", c.Len(), c.Cap())
		}
		if !c.Contains(key) {
			t.Fatal("touched key absent")
		}
	}
	h, m := c.Stats()
	if h+m != touches {
		t.Fatalf("hits %d + misses %d != touches %d", h, m, touches)
	}
}
