package splitter

import (
	"repro/internal/maxreg"
	"repro/internal/shmem"
)

// Collect is the adaptive store/collect object of Attiya, Kuhn, Plaxton,
// Wattenhofer and Wattenhofer [25] — the paper the TempName stage's
// randomized splitter tree comes from. Each process acquires a tree node
// once (adaptively, O(log k) depth w.h.p.) and thereafter stores its value
// in O(1); a collect walks the allocated portion of the tree and returns
// every stored value.
//
// The object demonstrates that the splitter-tree substrate serves more
// than renaming, and the tests use it to cross-validate the tree's
// adaptivity: the number of registers a collect reads is O(k^c), a
// function of contention only.
type Collect struct {
	tree *Tree
	mem  shmem.Mem

	mu   chan struct{} // guards vals allocation (bookkeeping)
	vals map[uint64]shmem.Reg
	// frontier tracks the highest acquired BFS index; a max register, so
	// concurrent joins can never regress it.
	frontier maxreg.MaxReg
}

// NewCollect allocates an adaptive collect object.
func NewCollect(mem shmem.Mem) *Collect {
	return &Collect{
		tree:     NewTree(mem),
		mem:      mem,
		mu:       make(chan struct{}, 1),
		vals:     make(map[uint64]shmem.Reg),
		frontier: maxreg.NewUnbounded(mem),
	}
}

// Reset restores the collect object to its empty state, keeping the
// allocated tree and value registers. Handles from earlier executions are
// stale after Reset; participants re-Join. Between executions only.
func (c *Collect) Reset() {
	c.tree.Reset()
	c.mu <- struct{}{}
	for _, r := range c.vals {
		r.Restore(0)
	}
	<-c.mu
	c.frontier.(*maxreg.Unbounded).Reset()
}

func (c *Collect) val(idx uint64) shmem.Reg {
	c.mu <- struct{}{}
	defer func() { <-c.mu }()
	r, ok := c.vals[idx]
	if !ok {
		r = c.mem.NewReg(0)
		c.vals[idx] = r
	}
	return r
}

// Handle is a process's acquired slot in the collect object.
type Handle struct {
	c   *Collect
	idx uint64
}

// Join acquires a slot for a new participant (unique nonzero id, one Join
// per participant). O(log k) splitter visits w.h.p.
func (c *Collect) Join(p shmem.Proc, id uint64) *Handle {
	idx := c.tree.Acquire(p, id)
	c.frontier.WriteMax(p, idx)
	return &Handle{c: c, idx: idx}
}

// Store publishes v in O(1) steps. Zero is reserved (means "empty").
func (h *Handle) Store(p shmem.Proc, v uint64) {
	if v == 0 {
		panic("splitter: Collect stores must be nonzero")
	}
	h.c.val(h.idx).Write(p, v)
}

// CollectAll returns every currently stored value. Cost is proportional to
// the allocated tree frontier: O(k^c) registers, adaptive to contention.
func (c *Collect) CollectAll(p shmem.Proc) []uint64 {
	hi := c.frontier.ReadMax(p)
	var out []uint64
	for idx := uint64(1); idx <= hi; idx++ {
		if v := c.val(idx).Read(p); v != 0 {
			out = append(out, v)
		}
	}
	return out
}
