// Package splitter implements randomized splitters and the unbounded binary
// splitter tree used by the paper's TempName stage (Section 6.2, following
// Attiya et al. [25] and the RatRace construction [12]).
//
// A splitter (Moir–Anderson) is a pair of registers with the guarantee that
// among the processes that enter it, at most one "stops" (acquires the
// splitter), and a process running alone always stops. Non-stopping
// processes descend to a uniformly random child, so with k participants a
// process acquires a node at depth O(log k) with high probability, giving
// temporary names of size polynomial in k.
package splitter

import (
	"sync"

	"repro/internal/shmem"
)

// Outcome of one splitter visit.
type Outcome uint8

// Splitter outcomes: Stop acquires the node; Down means continue to a child.
const (
	Stop Outcome = iota
	Down
)

// Splitter is a one-shot Moir–Anderson splitter. Contenders must use
// distinct nonzero ids.
type Splitter struct {
	x shmem.FastReg // last contender to announce
	y shmem.FastReg // door: nonzero once any contender passed
}

// NewSplitter allocates a splitter from mem.
func NewSplitter(mem shmem.Mem) *Splitter {
	return &Splitter{x: shmem.Fast(mem.NewReg(0)), y: shmem.Fast(mem.NewReg(0))}
}

// Reset restores the splitter to its initial state (no contender has
// entered). Bookkeeping between executions; charges no steps.
func (s *Splitter) Reset() {
	s.x.Restore(0)
	s.y.Restore(0)
}

// Visit runs the splitter protocol for the contender with the given id.
// It performs at most 4 register steps.
//
// Guarantees (standard splitter argument):
//   - at most one contender returns Stop;
//   - a contender running the splitter alone returns Stop.
func (s *Splitter) Visit(p shmem.Proc, id uint64) Outcome {
	if id == 0 {
		panic("splitter: contender id must be nonzero")
	}
	shmem.NoteFast(p, shmem.EvSplitter)
	s.x.Write(p, id)
	if s.y.Read(p) != 0 {
		return Down
	}
	s.y.Write(p, 1)
	if s.x.Read(p) == id {
		return Stop
	}
	return Down
}

// Tree is an unbounded binary tree of splitters with lazily allocated
// nodes. Nodes are identified by their 1-based breadth-first index: the root
// is 1 and node i has children 2i and 2i+1, so the index of a node at depth
// d is less than 2^(d+1). Acquiring a node yields the TempName of the paper.
//
// Node allocation is bookkeeping outside the shared-memory model (in the
// paper the infinite tree exists a priori); no simulated steps are charged
// for it. Lookups are lock-free (see shmem.LazyTable), and a tree is safe
// for concurrent descents on the native runtime.
type Tree struct {
	mem   shmem.Mem
	nodes *shmem.LazyTable[*Splitter]

	// Splitter shells and registers are chunk-allocated: node allocation
	// sits on the descent path and would otherwise cost three allocations
	// per node. mu guards the chunk cursor against concurrent descents;
	// arenas keeps every register chunk ever handed out so Reset can
	// restore the whole tree with a few sweeps.
	mu     sync.Mutex
	shells []Splitter
	chunk  shmem.RegArena
	off    int
	arenas []shmem.RegArena
}

// treeChunk is the number of splitters allocated per chunk (two registers
// each).
const treeChunk = 32

// NewTree allocates an empty splitter tree backed by mem.
func NewTree(mem shmem.Mem) *Tree {
	return &Tree{mem: mem, nodes: shmem.NewLazyTable[*Splitter]()}
}

// node returns the splitter at index idx, allocating it on first use.
func (t *Tree) node(idx uint64) *Splitter {
	if s, ok := t.nodes.Lookup(idx); ok {
		return s
	}
	return t.nodes.Insert(idx, t.newSplitter())
}

// newSplitter takes the next splitter from the current chunk. A splitter
// that loses its Insert race stays in its chunk unused; Reset sweeps it
// like any other.
func (t *Tree) newSplitter() *Splitter {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off == treeChunk || t.chunk == nil {
		t.shells = make([]Splitter, treeChunk)
		t.chunk = shmem.NewRegs(t.mem, 2*treeChunk)
		t.arenas = append(t.arenas, t.chunk)
		t.off = 0
	}
	s := &t.shells[t.off]
	s.x = shmem.FastAt(t.chunk, 2*t.off)
	s.y = shmem.FastAt(t.chunk, 2*t.off+1)
	t.off++
	return s
}

// Reset restores every allocated splitter to its initial state, keeping
// the node table: the next execution reuses the same nodes with zero
// allocation. Must only run between executions.
func (t *Tree) Reset() {
	for _, a := range t.arenas {
		a.Reset()
	}
}

// Size returns the number of allocated splitter nodes (a space-complexity
// probe for the benchmarks).
func (t *Tree) Size() int {
	return t.nodes.Len()
}

// Acquire descends from the root, flipping a fair coin at every non-stop
// visit, until the contender acquires a node; it returns the node's BFS
// index (≥ 1). Distinct invocations must use distinct nonzero ids.
//
// With k concurrent contenders the returned index is ≤ k^c with high
// probability and the descent takes O(log k) splitter visits w.h.p.
// (properties (1) and (2) quoted in Section 6.2 of the paper).
func (t *Tree) Acquire(p shmem.Proc, id uint64) uint64 {
	idx := uint64(1)
	for {
		if t.node(idx).Visit(p, id) == Stop {
			return idx
		}
		idx = 2*idx + shmem.CoinFast(p, 2)
	}
}
