package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// listLRU is the container/list LRU the slice-backed list replaced,
// kept as the reference for the differential test.
type listLRU struct {
	capacity     int
	ll           *list.List
	m            map[Key]*list.Element
	hits, misses int64
}

func newListLRU(capUnits int) *listLRU {
	return &listLRU{capacity: capUnits, ll: list.New(), m: make(map[Key]*list.Element)}
}

func (c *listLRU) Touch(k Key) bool {
	if e, ok := c.m[k]; ok {
		c.ll.MoveToFront(e)
		c.hits++
		return true
	}
	c.misses++
	if c.capacity == 0 {
		return false
	}
	if c.ll.Len() >= c.capacity {
		back := c.ll.Back()
		delete(c.m, back.Value.(Key))
		c.ll.Remove(back)
	}
	c.m[k] = c.ll.PushFront(k)
	return false
}

func (c *listLRU) Reset() {
	c.ll.Init()
	c.m = make(map[Key]*list.Element)
	c.hits, c.misses = 0, 0
}

// TestLRUMatchesListReference drives the LRU and the container/list
// reference with the same random touches (and occasional resets) and
// compares every observable after every step.
func TestLRUMatchesListReference(t *testing.T) {
	for _, capUnits := range []int{0, 1, 2, 64} {
		rng := rand.New(rand.NewSource(int64(100 + capUnits)))
		got, want := New(capUnits), newListLRU(capUnits)
		// A key space a little larger than the capacity keeps both
		// hits and evictions frequent.
		files, units := 3, 2+capUnits/2
		key := func() Key { return k(fmt.Sprintf("f%d", rng.Intn(files)), int64(rng.Intn(units))) }
		for step := 0; step < 20000; step++ {
			if rng.Intn(2000) == 0 {
				got.Reset()
				want.Reset()
			}
			tk := key()
			if g, w := got.Touch(tk), want.Touch(tk); g != w {
				t.Fatalf("cap %d step %d: Touch(%v) = %t, reference %t", capUnits, step, tk, g, w)
			}
			probe := key()
			_, inRef := want.m[probe]
			if g := got.Contains(probe); g != inRef {
				t.Fatalf("cap %d step %d: Contains(%v) = %t, reference %t", capUnits, step, probe, g, inRef)
			}
			if got.Len() != want.ll.Len() {
				t.Fatalf("cap %d step %d: Len = %d, reference %d", capUnits, step, got.Len(), want.ll.Len())
			}
			if h, m := got.Stats(); h != want.hits || m != want.misses {
				t.Fatalf("cap %d step %d: Stats = %d/%d, reference %d/%d", capUnits, step, h, m, want.hits, want.misses)
			}
			if got.Cap() != capUnits {
				t.Fatalf("cap %d: Cap = %d", capUnits, got.Cap())
			}
		}
	}
}

// TestLRUWarmPathsDoNotAllocate checks that once the cache is full,
// neither a hit nor an evicting miss allocates.
func TestLRUWarmPathsDoNotAllocate(t *testing.T) {
	const capUnits = 64
	c := New(capUnits)
	keys := make([]Key, 4*capUnits)
	for i := range keys {
		keys[i] = k(fmt.Sprintf("f%d", i%3), int64(i))
	}
	for _, key := range keys[:capUnits] {
		c.Touch(key)
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		if !c.Touch(keys[i%capUnits]) {
			t.Fatal("expected a hit")
		}
		i++
	}); a != 0 {
		t.Errorf("hit path allocates %v per touch", a)
	}
	// Cycling through four times the capacity in order misses on
	// every touch and evicts the oldest unit each time.
	i = capUnits
	if a := testing.AllocsPerRun(1000, func() {
		if c.Touch(keys[i%len(keys)]) {
			t.Fatal("expected a miss")
		}
		i++
	}); a != 0 {
		t.Errorf("evicting-miss path allocates %v per touch", a)
	}
}
