package shmem

import "sync/atomic"

// Cells is a cache-line-padded arena of fetch-and-add accumulators — the
// split-phase absorption buffer of the phased counter (internal/phase).
// Each cell is one atomic word alone on its cache line, so concurrent
// adders on different cells never share a line and an add is one
// uncontended atomic RMW.
//
// Cells sit inside the step-counted model: Add charges one CAS-class step
// (hardware fetch-and-add, same unit cost as a CAS) and Load/Sum charge
// read steps, all accounted *before* the memory operation — so a step-hook
// veto (a FaultPlan crash) lands before the pending operation takes
// effect, exactly as it does for registers. Values are cumulative and only
// grow during an execution; Reset (between executions only) rewinds the
// arena to zero.
type Cells struct {
	cells []cell
}

// cell pads its word to a full cache line; 64 bytes keeps any two cells'
// words on distinct lines.
type cell struct {
	v atomic.Uint64
	_ [56]byte
}

// NewCells allocates n zeroed cells (n rounded up to a power of two, so a
// caller can mask ids onto cells without a modulo).
func NewCells(n int) *Cells {
	if n < 1 {
		n = 1
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Cells{cells: make([]cell, size)}
}

// Len returns the cell count (a power of two).
func (c *Cells) Len() int { return len(c.cells) }

// Add atomically adds d to cell i and returns the new value (one CAS-class
// step).
func (c *Cells) Add(p Proc, i int, d uint64) uint64 {
	stepFast(p, OpCAS)
	return c.cells[i].v.Add(d)
}

// Load returns cell i's value (one read step).
func (c *Cells) Load(p Proc, i int) uint64 {
	stepFast(p, OpRead)
	return c.cells[i].v.Load()
}

// Sum reads every cell and returns the total (one read step per cell).
// Each cell is individually monotone during an execution, so the sum of a
// sweep is monotone across non-overlapping sweeps even though the sweep is
// not an atomic snapshot.
func (c *Cells) Sum(p Proc) uint64 {
	var s uint64
	for i := range c.cells {
		stepFast(p, OpRead)
		s += c.cells[i].v.Load()
	}
	return s
}

// Reset rewinds every cell to zero. Between executions only.
func (c *Cells) Reset() {
	for i := range c.cells {
		c.cells[i].v.Store(0)
	}
}

var _ Resettable = (*Cells)(nil)
