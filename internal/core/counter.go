package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/maxreg"
	"repro/internal/shmem"
	"repro/internal/splitter"
	"repro/internal/tas"
)

// UIDSource hands out globally unique nonzero invocation ids: the high word
// is the process id, the low word a per-process sequence number. It is
// bookkeeping shared with no one — each process touches only its own
// counter — so the hot path is lock-free: a copy-on-write slice of
// cache-line-padded per-process slots, published through an atomic pointer.
// Only slot-table growth takes the mutex. (The previous map-behind-a-mutex
// serialized every native Inc across all processes.)
type UIDSource struct {
	mu    sync.Mutex
	slots atomic.Pointer[[]*uidSlot]
}

// uidSlot is one process's sequence counter in its own cache line: adjacent
// processes bump their sequences on every operation, and sharing lines
// would put false sharing right back on the hot path.
type uidSlot struct {
	seq uint64
	_   [56]byte
}

// Next returns a fresh uid for an invocation by p. Only p's own goroutine
// touches p's slot, so the increment needs no atomics.
func (u *UIDSource) Next(p shmem.Proc) uint64 {
	id := p.ID()
	arr := u.slots.Load()
	if arr == nil || id >= len(*arr) {
		arr = u.grow(id)
	}
	s := (*arr)[id]
	s.seq++
	return uint64(id)<<32 | s.seq
}

// grow extends the slot table to cover id (copy-on-write; slot identity is
// stable across growth, so concurrent readers of the old slice still bump
// the same counters).
func (u *UIDSource) grow(id int) *[]*uidSlot {
	u.mu.Lock()
	defer u.mu.Unlock()
	var cur []*uidSlot
	if arr := u.slots.Load(); arr != nil {
		cur = *arr
	}
	if id < len(cur) {
		return u.slots.Load()
	}
	next := make([]*uidSlot, id+1)
	copy(next, cur)
	for i := len(cur); i <= id; i++ {
		next[i] = &uidSlot{}
	}
	u.slots.Store(&next)
	return &next
}

// Reset rewinds every per-process sequence, so a reused object hands out
// the same uid stream as a fresh one (part of the bit-identical reuse
// contract). Between executions only.
func (u *UIDSource) Reset() {
	arr := u.slots.Load()
	if arr == nil {
		return
	}
	for _, s := range *arr {
		s.seq = 0
	}
}

// MonotoneCounter is the Section 8.1 counter: increment acquires a fresh
// name from the strong adaptive renaming object and writes it to an
// unbounded max register; read returns the max register's value.
//
// Lemma 4: the counter is monotone-consistent — reads are totally ordered
// consistently with real time and return values between the number of
// completed and the number of started increments — with expected step
// complexity O(log v) per operation, v the number of increments started.
// It is NOT linearizable (the paper exhibits a three-process
// counterexample, reproduced in this package's tests), which is exactly
// the price paid for shaving the log factor off the counter of [17].
type MonotoneCounter struct {
	ren  Renamer
	max  maxreg.MaxReg
	uids UIDSource
}

// NewMonotoneCounter builds the counter from a fresh strong adaptive
// renaming instance and a fresh unbounded max register, both allocated
// from mem.
func NewMonotoneCounter(mem shmem.Mem, mk tas.SidedMaker) *MonotoneCounter {
	return &MonotoneCounter{
		ren: NewStrongAdaptive(mem, splitter.NewTree(mem), mk),
		max: maxreg.NewUnbounded(mem),
	}
}

// NewMonotoneCounterWith builds the counter over an explicit renamer and
// max register (tests inject instrumented ones).
func NewMonotoneCounterWith(ren Renamer, max maxreg.MaxReg) *MonotoneCounter {
	return &MonotoneCounter{ren: ren, max: max}
}

// Reset restores the counter to zero: the renamer, the max register, and
// the uid streams all rewind, keeping the allocated graphs. The injected
// renamer and max register must be resettable (the standard ones are).
// Between executions only.
func (c *MonotoneCounter) Reset() {
	c.ren.(shmem.Resettable).Reset()
	c.max.(shmem.Resettable).Reset()
	c.uids.Reset()
}

// Inc increments the counter and returns the acquired name (the paper's
// increment has no return value; exposing the name costs nothing and the
// tests use it).
func (c *MonotoneCounter) Inc(p shmem.Proc) uint64 {
	name := c.ren.Rename(p, c.uids.Next(p))
	c.max.WriteMax(p, name)
	return name
}

// Read returns the counter value.
func (c *MonotoneCounter) Read(p shmem.Proc) uint64 {
	return c.max.ReadMax(p)
}

// CASCounter is the baseline linearizable counter: fetch-and-increment by
// CAS retry on a single word. Steps per increment are Θ(contention) under
// an adaptive adversary (each failed CAS is a wasted step), which is the
// behaviour the paper's counter improves on asymptotically.
type CASCounter struct {
	v shmem.FastReg
}

// NewCASCounter allocates the baseline counter.
func NewCASCounter(mem shmem.Mem) *CASCounter {
	return &CASCounter{v: shmem.Fast(mem.NewCASReg(0))}
}

// Reset restores the counter to zero. Between executions only.
func (c *CASCounter) Reset() {
	c.v.Restore(0)
}

// Inc atomically increments and returns the new value.
func (c *CASCounter) Inc(p shmem.Proc) uint64 {
	for {
		v := c.v.Read(p)
		if c.v.CompareAndSwap(p, v, v+1) {
			return v + 1
		}
	}
}

// Read returns the counter value.
func (c *CASCounter) Read(p shmem.Proc) uint64 {
	return c.v.Read(p)
}
