// Package cache implements the buffer cache that sits between the
// application's array references and the disk subsystem. Following
// the paper's setup, data is cached at stripe-unit granularity: an
// array reference causes a disk access unless its stripe unit is
// already cached, which is what makes the evaluated workloads issue
// one request per stripe unit per sweep.
package cache

// Key identifies one stripe unit of one array file, packed into a
// single integer by the caller (layout.Subsystem.UnitKey numbers every
// placed file's units consecutively). The cache only compares keys.
type Key uint64

// LRU is a fixed-capacity least-recently-used cache of stripe units.
// The zero value is not usable; use New.
//
// The recency list is intrusive and slice-backed: each cached unit
// owns one slot of entries, linked to its neighbours by slot index,
// and an evicted unit's slot is reused by the unit replacing it. The
// key-to-slot index is an open-addressed, linearly probed table with
// at least twice as many positions as the capacity, so its memory is
// O(capacity) whatever the key range, and deletion shifts later
// probes back instead of leaving tombstones. A warm cache allocates
// nothing on hits or on evicting misses.
type LRU struct {
	capacity int
	entries  []entry
	head     int32 // most recently used slot; -1 when empty
	tail     int32 // least recently used slot; -1 when empty
	// index holds slot+1 per table position, 0 for an empty position;
	// nil when the capacity is zero.
	index  []int32
	shift  uint // 64 - log2(len(index)): home() keeps the top bits
	hits   int64
	misses int64
}

// entry is one slot of the recency list.
type entry struct {
	key  Key
	prev int32 // more recently used neighbour; -1 at the head
	next int32 // less recently used neighbour; -1 at the tail
}

// New returns an LRU holding at most capUnits stripe units. A
// capacity of zero disables caching (every touch misses).
func New(capUnits int) *LRU {
	if capUnits < 0 {
		capUnits = 0
	}
	c := &LRU{capacity: capUnits, head: -1, tail: -1}
	if capUnits > 0 {
		bits := uint(1)
		for 1<<bits < 2*capUnits {
			bits++
		}
		c.index = make([]int32, 1<<bits)
		c.shift = 64 - bits
		c.entries = make([]entry, 0, capUnits)
	}
	return c
}

// home is k's first probe position: Fibonacci hashing, so consecutive
// unit keys spread over the table.
func (c *LRU) home(k Key) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> c.shift)
}

// find returns the table position holding k and its slot, or the
// empty position k would be inserted at and -1.
func (c *LRU) find(k Key) (pos int, slot int32) {
	mask := len(c.index) - 1
	for i := c.home(k); ; i = (i + 1) & mask {
		s := c.index[i]
		if s == 0 {
			return i, -1
		}
		if c.entries[s-1].key == k {
			return i, s - 1
		}
	}
}

// remove empties table position i, shifting back every later entry of
// the probe run whose home does not lie cyclically in (i, j], so each
// remaining key stays reachable from its home without tombstones.
func (c *LRU) remove(i int) {
	mask := len(c.index) - 1
	for j := i; ; {
		c.index[i] = 0
		for {
			j = (j + 1) & mask
			s := c.index[j]
			if s == 0 {
				return
			}
			h := c.home(c.entries[s-1].key)
			if i <= j && (i < h && h <= j) || i > j && (i < h || h <= j) {
				continue
			}
			c.index[i] = s
			i = j
			break
		}
	}
}

// Touch records an access to the given unit. It reports whether the
// unit was present (a cache hit); on a miss the unit is inserted,
// evicting the least recently used unit if the cache is full.
func (c *LRU) Touch(k Key) bool {
	if c.capacity == 0 {
		c.misses++
		return false
	}
	pos, i := c.find(k)
	if i >= 0 {
		if i != c.head {
			c.unlink(i)
			c.pushFront(i)
		}
		c.hits++
		return true
	}
	c.misses++
	if len(c.entries) < c.capacity {
		i = int32(len(c.entries))
		c.entries = append(c.entries, entry{key: k})
	} else {
		i = c.tail
		old, _ := c.find(c.entries[i].key)
		c.remove(old)
		c.unlink(i)
		c.entries[i].key = k
		// The removal may have shifted k's probe run.
		pos, _ = c.find(k)
	}
	c.pushFront(i)
	c.index[pos] = i + 1
	return false
}

// unlink removes slot i from the recency list.
func (c *LRU) unlink(i int32) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront makes slot i the most recently used.
func (c *LRU) pushFront(i int32) {
	e := &c.entries[i]
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// Contains reports whether the unit is cached, without touching it.
func (c *LRU) Contains(k Key) bool {
	if c.capacity == 0 {
		return false
	}
	_, i := c.find(k)
	return i >= 0
}

// Len returns the number of cached units.
func (c *LRU) Len() int { return len(c.entries) }

// Cap returns the capacity in units.
func (c *LRU) Cap() int { return c.capacity }

// Stats returns the cumulative hit and miss counts.
func (c *LRU) Stats() (hits, misses int64) { return c.hits, c.misses }

// Reset empties the cache and clears the statistics.
func (c *LRU) Reset() {
	c.entries = c.entries[:0]
	c.head, c.tail = -1, -1
	clear(c.index)
	c.hits, c.misses = 0, 0
}
