// Package phase is the contention-adaptive phased counter: the doppel-style
// split/joined phase-reconciliation architecture lifted onto the paper's
// counting objects.
//
// A phased counter runs in one of two modes over one authoritative spine,
// an AAC counter in the merge layout (maxreg.AACCounter):
//
//   - Joined: Inc delegates straight to the spine — the instruction stream
//     of the underlying counter, nothing added but one atomic mode load.
//     This is the low-contention mode: the spine is cheapest when nobody
//     is racing it.
//   - Split: Inc lands in a cache-line-padded per-shard cell (one atomic
//     fetch-and-add, lock-free, allocation-free) and the spine is updated
//     only on epoch boundaries: when a cell's cumulative count reaches or
//     passes a multiple of the epoch, the crossing incrementer merges
//     that cell into the spine (cooperative reconciliation). The spine
//     walk is amortized over the epoch — at high contention this replaces
//     the contended O(log n · log v) walk per Inc with one uncontended
//     add.
//
// Reads never lose monotone consistency to the split (the correctness
// contract exec.CheckCounterTrace verifies): cells are *cumulative* — they
// are never drained — and merges publish a source's cumulative total into a
// per-source CAS-max slot inside the spine, so merging is idempotent and
// crash-safe (a merge replayed, raced, or crashed mid-way can never
// double-count or lose a completed increment). Read returns
// ReadJoined(spine) + Σ cells: every component is monotone, every completed
// increment has landed in exactly one component, and merged totals are
// excluded from ReadJoined — so the sum is within [completed, started] and
// non-overlapping reads are value-ordered, without any snapshot or seqlock
// (a crashed reconciler can therefore never wedge readers). ReadSpine
// returns the authoritative spine value, which lags by at most one epoch of
// unmerged counts per cell — the documented bounded staleness; ReadStrict
// merges every cell first and then reads the spine.
//
// Mode switching is a serving-tier policy (see Pool): automatic and
// hysteretic, driven by the live contention gauge the serving layer
// already maintains (failed lane leases per operation). The counter
// itself keeps SetMode cheap and correct in either direction: switching
// never invalidates cells (reads always sweep them), it only changes where
// *new* increments go — so a transition needs no stop-the-world phase
// change, matching how the paper's objects adapt to contention rather than
// configuration.
package phase

import (
	"sync/atomic"

	"repro/internal/maxreg"
	"repro/internal/shmem"
)

// Mode is the counter's current phase.
type Mode int32

const (
	// Joined delegates every Inc to the spine.
	Joined Mode = iota
	// Split absorbs Incs into local cells, reconciled on epoch boundaries.
	Split
)

// String names the mode (stats and reports).
func (m Mode) String() string {
	if m == Split {
		return "split"
	}
	return "joined"
}

// Counter is the phased counter over one spine. It runs on either runtime
// (native goroutines or the deterministic simulator); process ids index
// the cells, so ids must stay below the spine's process capacity and
// shards are id & (cells-1).
//
// The spine's merge layout gives Read its decomposition: Merge publishes a
// source's cumulative total by CAS-max (idempotent per source), the
// spine's Read returns joined increments plus merged totals, and
// ReadJoined excludes merged totals.
type Counter struct {
	spine *maxreg.AACCounter
	cells *shmem.Cells
	mask  uint64
	epoch uint64 // power of two: cooperative merge period per cell

	mode     atomic.Int32
	switches atomic.Uint64
	merges   atomic.Uint64
}

// NewAAC builds the phased counter: an AAC merge-layout spine with lanes
// process slots, one cell (and one merge slot) per lane, and a cooperative
// epoch (rounded up to a power of two; a cell is merged whenever its
// cumulative count crosses a multiple of the epoch). It starts Joined.
func NewAAC(mem shmem.Mem, lanes, epoch int) *Counter {
	size := 1
	for size < lanes {
		size <<= 1
	}
	e := uint64(1)
	for e < uint64(max(epoch, 1)) {
		e <<= 1
	}
	ca := shmem.NewCells(size)
	return &Counter{
		spine: maxreg.NewAACCounterWithMerge(mem, size, size),
		cells: ca,
		mask:  uint64(ca.Len() - 1),
		epoch: e,
	}
}

// Spine returns the authoritative spine.
func (c *Counter) Spine() *maxreg.AACCounter { return c.spine }

// Mode returns the current mode.
func (c *Counter) Mode() Mode { return Mode(c.mode.Load()) }

// SetMode switches the mode for subsequent Incs. Switching is always safe
// mid-execution: reads sweep the cells in either mode, so no increment is
// ever orphaned; switching to Joined merely stops feeding the cells (a
// serving tier that wants the spine fresh afterwards runs Reconcile).
func (c *Counter) SetMode(m Mode) {
	if c.mode.Swap(int32(m)) != int32(m) {
		c.switches.Add(1)
	}
}

// Inc adds one on behalf of p: Add(p, 1).
func (c *Counter) Inc(p shmem.Proc) { c.Add(p, 1) }

// Add adds n ≥ 1 on behalf of p as one operation. Joined mode is the
// spine's own add, one increment's walk; split mode is one padded
// fetch-and-add, plus a cooperative merge when the cell crosses a
// multiple of the epoch, whether it lands on one or passes it.
func (c *Counter) Add(p shmem.Proc, n uint64) {
	if Mode(c.mode.Load()) == Joined {
		c.spine.Add(p, n)
		return
	}
	shard := uint64(p.ID()) & c.mask
	v := c.cells.Add(p, int(shard), n)
	if (v-n)&^(c.epoch-1) != v&^(c.epoch-1) {
		c.spine.Merge(p, int(shard), v)
		c.merges.Add(1)
	}
}

// Read returns the fast monotone-consistent value: joined increments plus
// every cell's cumulative count. No merge slot is double-counted
// (ReadJoined excludes them) and no completed increment is missing (a
// completed split Inc has landed its cell add; a completed joined Inc has
// refreshed the joined component) — so the value sits in
// [completed, started] and non-overlapping Reads are value-ordered, in
// either mode and across mode switches.
func (c *Counter) Read(p shmem.Proc) uint64 {
	return c.spine.ReadJoined(p) + c.cells.Sum(p)
}

// ReadSpine returns the authoritative spine value: joined increments plus
// merged totals. It lags Read by the unmerged remainder of each cell —
// less than one epoch per cell, the documented staleness bound — and is
// NOT monotone-consistent against concurrent split increments (use Read or
// ReadStrict for checked values).
func (c *Counter) ReadSpine(p shmem.Proc) uint64 {
	return c.spine.Read(p)
}

// ReadStrict merges every cell and returns the spine value: the forced
// reconciliation read. Strict reads are monotone-consistent, also mixed
// with fast Reads: the merge publishes at least every cell value a
// completed earlier Read observed, and the spine's joined component is
// refreshed on the way (the root sums both subtrees).
func (c *Counter) ReadStrict(p shmem.Proc) uint64 {
	c.Reconcile(p)
	return c.spine.Read(p)
}

// Reconcile merges every nonzero cell's cumulative count into the spine,
// bringing its staleness to zero as of the sweep. Safe to run from any
// process, concurrently with increments and other reconcilers, and at any
// point of a crash storm — merges are idempotent CAS-max publications.
func (c *Counter) Reconcile(p shmem.Proc) {
	for i := 0; i <= int(c.mask); i++ {
		if v := c.cells.Load(p, i); v > 0 {
			c.spine.Merge(p, i, v)
			c.merges.Add(1)
		}
	}
}

// Merges returns the number of cell merges performed (cooperative,
// reconciler, and strict-read merges alike).
func (c *Counter) Merges() uint64 { return c.merges.Load() }

// Switches returns the number of mode transitions.
func (c *Counter) Switches() uint64 { return c.switches.Load() }

// Lag samples the unmerged remainder: the fast value minus the
// authoritative spine value, i.e. how far the spine currently trails — the
// staleness gauge, bounded below one epoch per cell plus in-flight joined
// increments. Charged as ordinary read steps on p (stats calls run on a
// serving proc).
func (c *Counter) Lag(p shmem.Proc) uint64 {
	f := c.Read(p)
	s := c.ReadSpine(p)
	if f <= s {
		return 0
	}
	return f - s
}

// Reset rewinds the counter to its just-constructed state: spine and cells
// to zero, mode to Joined, accounting cleared. Between executions only.
func (c *Counter) Reset() {
	c.spine.Reset()
	c.cells.Reset()
	c.mode.Store(int32(Joined))
	c.switches.Store(0)
	c.merges.Store(0)
}

var _ shmem.Resettable = (*Counter)(nil)
