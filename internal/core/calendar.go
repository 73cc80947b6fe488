package core

import "math"

// calendar is the Arbiter's queue of pending budget crossings: at most one
// entry per master, keyed by the cycle of its next crossing. Crossings are
// mostly filed in nondecreasing order — a master released from the bus
// later refills later — so an entry no earlier than the newest queued one
// joins a FIFO ring, where push and pop are O(1). Out-of-order entries (a
// heavier weight, a shorter hold, a saturation crossing filed after an
// eligibility one) go to an indexed binary min-heap. The earliest entry is
// the earlier of the ring's head and the heap's root. Both are sized at
// New and never grow: the ring takes an entry only while it has a free
// slot, and the heap can always hold every master.
type calendar struct {
	at  []int64 // per master: the cycle of its entry
	pos []int32 // per master: heap index ≥ 0, ring slot s as −2−s, −1 when absent

	heap []int32 // masters, heap-ordered by at

	// ring holds masters in nondecreasing at order from ring[head] on,
	// used slots in all; a removed entry leaves a −1 hole that is skipped
	// when it reaches the head. last is the at of the newest ring entry.
	ring       []int32
	head, used int
	last       int64
}

func newCalendar(n int) calendar {
	c := calendar{
		at:   make([]int64, n),
		pos:  make([]int32, n),
		heap: make([]int32, 0, n),
		ring: make([]int32, n),
	}
	for i := range c.pos {
		c.pos[i] = -1
	}
	return c
}

// clear drops every entry.
func (c *calendar) clear() {
	for _, m := range c.heap {
		c.pos[m] = -1
	}
	for ; c.used > 0; c.used-- {
		if m := c.ring[c.head]; m >= 0 {
			c.pos[m] = -1
		}
		c.head = c.wrap(c.head + 1)
	}
	c.heap = c.heap[:0]
}

// wrap reduces a ring index below 2·len(ring) to a slot.
func (c *calendar) wrap(i int) int {
	if i >= len(c.ring) {
		return i - len(c.ring)
	}
	return i
}

// next returns the cycle of the earliest entry, or math.MaxInt64.
func (c *calendar) next() int64 {
	t := int64(math.MaxInt64)
	if c.used > 0 {
		t = c.at[c.ring[c.head]]
	}
	if len(c.heap) > 0 && c.at[c.heap[0]] < t {
		t = c.at[c.heap[0]]
	}
	return t
}

// push files master m, which must have no entry, at cycle at.
func (c *calendar) push(m int, at int64) {
	c.at[m] = at
	if c.used < len(c.ring) && (c.used == 0 || at >= c.last) {
		s := c.wrap(c.head + c.used)
		c.ring[s] = int32(m)
		c.pos[m] = int32(-2 - s)
		c.used++
		c.last = at
		return
	}
	i := len(c.heap)
	c.heap = append(c.heap, int32(m))
	c.up(i)
}

// pop removes the earliest entry, which must exist, and returns its master.
func (c *calendar) pop() int {
	if c.used > 0 && (len(c.heap) == 0 || c.at[c.ring[c.head]] <= c.at[c.heap[0]]) {
		m := c.ring[c.head]
		c.pos[m] = -1
		c.ring[c.head] = -1
		c.skipHoles()
		return int(m)
	}
	m := c.heap[0]
	c.removeAt(0)
	return int(m)
}

// remove drops master m's entry, if it has one.
func (c *calendar) remove(m int) {
	switch i := c.pos[m]; {
	case i >= 0:
		c.removeAt(int(i))
	case i < -1:
		c.ring[-2-i] = -1
		c.pos[m] = -1
		c.skipHoles()
	}
}

// skipHoles advances the ring's head past removed entries.
func (c *calendar) skipHoles() {
	for c.used > 0 && c.ring[c.head] < 0 {
		c.head = c.wrap(c.head + 1)
		c.used--
	}
}

// removeAt removes heap entry i. It walks the hole down to a leaf along the
// earlier children, then sifts the last entry up from there (Floyd's
// variant): one comparison per level on the way down.
func (c *calendar) removeAt(i int) {
	c.pos[c.heap[i]] = -1
	last := len(c.heap) - 1
	e := c.heap[last]
	c.heap = c.heap[:last]
	if i == last {
		return
	}
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		if r := l + 1; r < last && c.at[c.heap[r]] < c.at[c.heap[l]] {
			l = r
		}
		c.heap[i] = c.heap[l]
		c.pos[c.heap[i]] = int32(i)
		i = l
	}
	c.heap[i] = e
	c.up(i)
}

func (c *calendar) up(i int) {
	m := c.heap[i]
	at := c.at[m]
	for i > 0 {
		p := (i - 1) / 2
		if c.at[c.heap[p]] <= at {
			break
		}
		c.heap[i] = c.heap[p]
		c.pos[c.heap[i]] = int32(i)
		i = p
	}
	c.heap[i] = m
	c.pos[m] = int32(i)
}
