// Package cache implements the buffer cache that sits between the
// application's array references and the disk subsystem. Following
// the paper's setup, data is cached at stripe-unit granularity: an
// array reference causes a disk access unless its stripe unit is
// already cached, which is what makes the evaluated workloads issue
// one request per stripe unit per sweep.
package cache

// Key identifies one stripe unit of one array file.
type Key struct {
	File string
	Unit int64
}

// LRU is a fixed-capacity least-recently-used cache of stripe units.
// The zero value is not usable; use New.
//
// The recency list is intrusive and slice-backed: each cached unit
// owns one slot of entries, linked to its neighbours by slot index,
// and an evicted unit's slot is reused by the unit replacing it, so a
// warm cache allocates nothing on hits or on evicting misses.
type LRU struct {
	capacity int
	entries  []entry
	head     int32 // most recently used slot; -1 when empty
	tail     int32 // least recently used slot; -1 when empty
	m        map[Key]int32
	hits     int64
	misses   int64
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
	return &LRU{
		capacity: capUnits,
		head:     -1,
		tail:     -1,
		m:        make(map[Key]int32, capUnits),
	}
}

// Touch records an access to the given unit. It reports whether the
// unit was present (a cache hit); on a miss the unit is inserted,
// evicting the least recently used unit if the cache is full.
func (c *LRU) Touch(k Key) bool {
	if i, ok := c.m[k]; ok {
		if i != c.head {
			c.unlink(i)
			c.pushFront(i)
		}
		c.hits++
		return true
	}
	c.misses++
	if c.capacity == 0 {
		return false
	}
	var i int32
	if len(c.entries) < c.capacity {
		i = int32(len(c.entries))
		c.entries = append(c.entries, entry{key: k})
	} else {
		i = c.tail
		delete(c.m, c.entries[i].key)
		c.unlink(i)
		c.entries[i].key = k
	}
	c.pushFront(i)
	c.m[k] = i
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
	_, ok := c.m[k]
	return ok
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
	clear(c.m)
	c.hits, c.misses = 0, 0
}
