package shmem

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// LazyTable is a uint64-keyed table of lazily created shared objects. The
// constructions in this repository conceptually pre-allocate unbounded
// object families (an infinite splitter tree, a 2^32-wire network of
// comparators); a LazyTable materializes only the objects an execution
// touches. Allocation is bookkeeping outside the shared-memory model — no
// simulated steps are charged — but it sits on the hot path of every object
// access, so lookups take no locks and allocate nothing.
//
// The layout is open addressing with linear probing over co-located
// key/value slots (a probe costs one cache line) and a multiply-shift hash.
// Keys are atomic words, values are published before their key
// (release/acquire through the key), inserts and growth serialize on a
// mutex, and the table itself swaps copy-on-write. Every object is created
// exactly once per key as far as any process can observe. One table serves
// both runtimes: on the simulator only one process runs at a time, so the
// mutex is never contended.
//
// Range costs the entries, not the capacity: while the table is still its
// inline first generation, an occupancy word lists the occupied slots, and
// a grown generation is more than a third full. Serving pools reset their
// graphs through Range after every operation, and an operation at low
// contention builds only a few objects.
type LazyTable[V any] struct {
	tab     atomic.Pointer[lazyTab[V]]
	zeroVal V           // the rare real key 0 (0 marks empty slots)
	zeroSet atomic.Bool // publishes zeroVal (written under mu)
	mu      sync.Mutex  // guards inserts and growth
	n       atomic.Int64
	occ     atomic.Uint64 // bit i: firstSlots[i] holds a key (set under mu after the key)

	// The first generation lives inline, so a new table costs a single
	// allocation: object graphs build many small tables (two per RatRace
	// slot of a bit-batching renamer), and the sweep engine instantiates
	// graphs per job.
	first      lazyTab[V]
	firstSlots [lazyTableMinSize]lazySlot[V]
}

// lazyTab is one immutable-capacity generation of the table.
type lazyTab[V any] struct {
	shift uint
	slots []lazySlot[V]
}

// lazySlot is one table entry. val is written before key is atomically
// set, so any reader that observes the key also observes the value
// (release/acquire on the key).
type lazySlot[V any] struct {
	key atomic.Uint64 // 0 = empty
	val V
}

const lazyTableMinSize = 64 // power of two; the occupancy word has a bit per slot

// NewLazyTable returns an empty table.
func NewLazyTable[V any]() *LazyTable[V] {
	t := &LazyTable[V]{}
	t.first = lazyTab[V]{shift: lazyShift(lazyTableMinSize), slots: t.firstSlots[:]}
	t.tab.Store(&t.first)
	return t
}

// lazyShift is the hash shift of a generation of size slots.
func lazyShift(size int) uint {
	return 64 - uint(bits.TrailingZeros(uint(size)))
}

// hash spreads a key over the generation with a Fibonacci multiply-shift.
func (c *lazyTab[V]) hash(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> c.shift
}

// lookup probes one generation.
func (c *lazyTab[V]) lookup(key uint64) (V, bool) {
	mask := uint64(len(c.slots) - 1)
	for i := c.hash(key); ; i = (i + 1) & mask {
		s := &c.slots[i]
		switch s.key.Load() {
		case key:
			return s.val, true
		case 0:
			var zero V
			return zero, false
		}
	}
}

// Lookup returns the object at key if it exists. The hit path takes no
// locks and allocates nothing (callers avoid closure-based get-or-create
// APIs deliberately: constructing a capturing closure per access costs an
// allocation on the hot path).
func (t *LazyTable[V]) Lookup(key uint64) (V, bool) {
	if key == 0 {
		if t.zeroSet.Load() {
			return t.zeroVal, true
		}
		var zero V
		return zero, false
	}
	return t.tab.Load().lookup(key)
}

// Insert publishes the object for key and returns the table's winner: v
// itself, or the object another goroutine published first. Callers create
// the object optimistically after a failed Lookup; a losing duplicate was
// never visible to any process, so discarding it is safe.
func (t *LazyTable[V]) Insert(key uint64, v V) V {
	t.mu.Lock()
	defer t.mu.Unlock()
	if key == 0 {
		if t.zeroSet.Load() {
			return t.zeroVal
		}
		t.zeroVal = v
		t.zeroSet.Store(true)
		t.n.Add(1)
		return v
	}
	c := t.tab.Load()
	// Re-check under the lock: another goroutine may have inserted key.
	if w, ok := c.lookup(key); ok {
		return w
	}
	if n := t.n.Load(); 4*(n+1) > 3*int64(len(c.slots)) {
		c = t.grow(c)
	}
	mask := uint64(len(c.slots) - 1)
	i := c.hash(key)
	for c.slots[i].key.Load() != 0 {
		i = (i + 1) & mask
	}
	c.slots[i].val = v        // value first...
	c.slots[i].key.Store(key) // ...then the key that publishes it
	if c == &t.first {
		t.occ.Or(1 << i) // ...then the bit that lists it for Range
	}
	t.n.Add(1)
	return v
}

// grow doubles the table (mu held): entries move to a fresh generation,
// which is published wholesale. Readers concurrently probing the old
// generation still see every entry inserted before the growth; they pick up
// the new generation on their next Lookup.
func (t *LazyTable[V]) grow(old *lazyTab[V]) *lazyTab[V] {
	size := 2 * len(old.slots)
	next := &lazyTab[V]{shift: lazyShift(size), slots: make([]lazySlot[V], size)}
	mask := uint64(size - 1)
	for i := range old.slots {
		k := old.slots[i].key.Load()
		if k == 0 {
			continue
		}
		j := next.hash(k)
		for next.slots[j].key.Load() != 0 {
			j = (j + 1) & mask
		}
		next.slots[j].val = old.slots[i].val
		next.slots[j].key.Store(k)
	}
	t.tab.Store(next)
	return next
}

// Range calls f for every object in the table until f returns false. The
// iteration order is unspecified. Range is bookkeeping (Reset walks the
// instantiated object graph with it); objects inserted while it runs may
// or may not be visited. On the inline generation it visits only the slots
// the occupancy word lists, in slot order as a scan would; a grown
// generation is scanned. The inline slots never change once the table
// grows, so a Range that loaded the inline generation may still read them.
func (t *LazyTable[V]) Range(f func(key uint64, v V) bool) {
	if t.zeroSet.Load() && !f(0, t.zeroVal) {
		return
	}
	c := t.tab.Load()
	if c == &t.first {
		for occ := t.occ.Load(); occ != 0; occ &= occ - 1 {
			s := &c.slots[bits.TrailingZeros64(occ)]
			if !f(s.key.Load(), s.val) {
				return
			}
		}
		return
	}
	for i := range c.slots {
		if k := c.slots[i].key.Load(); k != 0 && !f(k, c.slots[i].val) {
			return
		}
	}
}

// Len returns the number of objects created so far (a space probe).
func (t *LazyTable[V]) Len() int {
	return int(t.n.Load())
}
