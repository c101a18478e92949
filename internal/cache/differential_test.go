package cache

import (
	"container/list"
	"math/rand"
	"testing"
)

// listLRU is a container/list LRU over a Go map, the reference for
// the differential tests.
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

// checkAgainstReference drives the LRU and the container/list
// reference with the same touches (and occasional resets) from next
// and compares every observable after every step.
func checkAgainstReference(t *testing.T, name string, capUnits, steps int, rng *rand.Rand, next func() Key) {
	t.Helper()
	got, want := New(capUnits), newListLRU(capUnits)
	for step := 0; step < steps; step++ {
		if rng.Intn(2000) == 0 {
			got.Reset()
			want.Reset()
		}
		tk := next()
		if g, w := got.Touch(tk), want.Touch(tk); g != w {
			t.Fatalf("%s cap %d step %d: Touch(%#x) = %t, reference %t", name, capUnits, step, tk, g, w)
		}
		probe := next()
		_, inRef := want.m[probe]
		if g := got.Contains(probe); g != inRef {
			t.Fatalf("%s cap %d step %d: Contains(%#x) = %t, reference %t", name, capUnits, step, probe, g, inRef)
		}
		if got.Len() != want.ll.Len() {
			t.Fatalf("%s cap %d step %d: Len = %d, reference %d", name, capUnits, step, got.Len(), want.ll.Len())
		}
		if h, m := got.Stats(); h != want.hits || m != want.misses {
			t.Fatalf("%s cap %d step %d: Stats = %d/%d, reference %d/%d", name, capUnits, step, h, m, want.hits, want.misses)
		}
		if got.Cap() != capUnits {
			t.Fatalf("%s cap %d: Cap = %d", name, capUnits, got.Cap())
		}
	}
}

// TestLRUMatchesListReference compares the LRU with the reference
// over random (file, unit) streams. A key space a little larger than
// the capacity keeps both hits and evictions frequent.
func TestLRUMatchesListReference(t *testing.T) {
	for _, capUnits := range []int{0, 1, 2, 64} {
		rng := rand.New(rand.NewSource(int64(100 + capUnits)))
		files, units := 3, 2+capUnits/2
		checkAgainstReference(t, "random", capUnits, 20000, rng, func() Key {
			return k(int32(rng.Intn(files)), int64(rng.Intn(units)))
		})
	}
}

// collidingKeys returns n distinct (file, unit) keys whose first probe
// lands on the same position of a capUnits-capacity cache's index.
func collidingKeys(capUnits, n int) []Key {
	c := New(capUnits)
	var out []Key
	target := c.home(k(0, 0))
	for f := int32(0); len(out) < n; f++ {
		for u := int64(0); u < 4096 && len(out) < n; u++ {
			if key := k(f, u); c.home(key) == target {
				out = append(out, key)
			}
		}
	}
	return out
}

// TestLRUProbeCollisions forces long probe runs: keys that share one
// home position, mixed with keys homed just after it, so evictions
// delete from the middle of runs and must shift later keys back.
func TestLRUProbeCollisions(t *testing.T) {
	for _, capUnits := range []int{1, 2, 64} {
		keys := collidingKeys(capUnits, 2*capUnits+3)
		c := New(capUnits)
		h := c.home(keys[0])
		for f := int32(0); len(keys) < 4*capUnits+6; f++ {
			for u := int64(0); u < 4096; u++ {
				if key := k(f, u); c.home(key) == (h+1)&(len(c.index)-1) {
					keys = append(keys, key)
					break
				}
			}
		}
		rng := rand.New(rand.NewSource(int64(7 + capUnits)))
		checkAgainstReference(t, "collide", capUnits, 20000, rng, func() Key { return keys[rng.Intn(len(keys))] })
		// A cyclic sweep over more colliding keys than the capacity
		// evicts on every touch.
		c = New(capUnits)
		for sweep := 0; sweep < 3; sweep++ {
			for _, key := range keys[:capUnits+1] {
				if c.Touch(key) {
					t.Fatalf("cap %d sweep %d: colliding key %#x hit after eviction", capUnits, sweep, key)
				}
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
		keys[i] = k(int32(i%3), int64(i))
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
