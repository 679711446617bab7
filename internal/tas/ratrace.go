package tas

import (
	"repro/internal/shmem"
	"repro/internal/splitter"
)

// RatRace is an adaptive n-process test-and-set in the style of Alistarh,
// Attiya, Gilbert, Giurgiu, Guerraoui (DISC 2010) [12], the implementation
// the paper's BitBatching algorithm uses for its vector of n test-and-set
// objects.
//
// Structure: contenders first acquire distinct nodes of a randomized
// splitter tree (depth O(log k) w.h.p. with contention k), then race upward
// through a tournament: every tree node carries a two-process TAS between
// the winners emerging from its two subtrees, and a second two-process TAS
// between that winner and the node's owner (the process that stopped at the
// node). The process winning the root's owner-TAS wins the RatRace.
//
// Properties:
//   - at most one winner (tournament edges are two-contender TAS objects,
//     and at most one process emerges from any subtree, by induction);
//   - in crash-free executions with at least one contender, exactly one
//     contender wins;
//   - a loser has always met another contender inside the object;
//   - per-process step complexity O(log k · cost(2-TAS)) w.h.p., i.e.
//     O(log k) expected and O(log² k) w.h.p. with the randomized TwoProc,
//     or a deterministic O(log k) with Unit — the bounds quoted in
//     Section 2 of the paper.
//
// Each contender (distinct invocation) must present a distinct nonzero id.
type RatRace struct {
	mem  shmem.Mem
	make SidedMaker
	tree *splitter.Tree

	// Fast path (as in [12]): a single splitter at the entrance; a
	// contender that stops there bypasses the tree and meets the tree's
	// champion in one final two-process TAS. nil when disabled.
	fast  *splitter.Splitter
	final Sided

	nodes *shmem.LazyTable[*raceNode]
}

// raceNode carries the two tournament TAS objects of one tree node.
type raceNode struct {
	children Sided // side 0: winner from child 2i; side 1: from child 2i+1
	owner    Sided // side 0: children-TAS winner; side 1: the node's owner
}

// NewRatRace allocates an adaptive TAS whose internal two-process objects
// are built by mk (MakeTwoProc or MakeUnit).
func NewRatRace(mem shmem.Mem, mk SidedMaker) *RatRace {
	return &RatRace{
		mem:   mem,
		make:  mk,
		tree:  splitter.NewTree(mem),
		nodes: shmem.NewLazyTable[*raceNode](),
	}
}

// NewRatRaceWithFastPath is NewRatRace plus the fast path of [12]: the
// first contender through an entry splitter skips the tournament tree and
// races its champion directly. An ablation knob; asymptotics are unchanged.
func NewRatRaceWithFastPath(mem shmem.Mem, mk SidedMaker) *RatRace {
	r := NewRatRace(mem, mk)
	r.fast = splitter.NewSplitter(mem)
	r.final = mk(mem)
	return r
}

func (r *RatRace) node(idx uint64) *raceNode {
	if n, ok := r.nodes.Lookup(idx); ok {
		return n
	}
	return r.nodes.Insert(idx, &raceNode{children: r.make(r.mem), owner: r.make(r.mem)})
}

// Registers returns the number of allocated splitter nodes, a proxy for the
// object's adaptive space footprint.
func (r *RatRace) Registers() int { return r.tree.Size() }

// Reset restores the object to its unentered state, keeping the lazily
// built splitter tree and tournament nodes so the next execution runs
// allocation-free. Must only run between executions.
func (r *RatRace) Reset() {
	r.tree.Reset()
	r.nodes.Range(func(_ uint64, n *raceNode) bool {
		resetSided(n.children)
		resetSided(n.owner)
		return true
	})
	if r.fast != nil {
		r.fast.Reset()
		resetSided(r.final)
	}
}

// resetSided resets any of the Sided implementations (TwoProc, Unit, the
// LL/SC-compiled TAS). A maker producing an unresettable flavor makes the
// owning object unresettable too — re-instantiate instead.
func resetSided(s Sided) {
	s.(shmem.Resettable).Reset()
}

// TestAndSet runs the contender with the given distinct nonzero id.
func (r *RatRace) TestAndSet(p shmem.Proc, id uint64) bool {
	shmem.NoteFast(p, shmem.EvTASEnter)
	if r.fast != nil && r.fast.Visit(p, id) == splitter.Stop {
		// Fast path: at most one contender stops here (splitter property)
		// and meets the tournament champion in the final TAS.
		if r.final.TestAndSetSide(p, 0) {
			shmem.NoteFast(p, shmem.EvTASWin)
			return true
		}
		return false
	}
	idx := r.tree.Acquire(p, id)

	// The owner of node idx first defends its own node...
	if !r.node(idx).owner.TestAndSetSide(p, 1) {
		return false
	}
	// ...then climbs: at each parent, first beat the sibling subtree's
	// emergent winner, then the parent's owner.
	for idx > 1 {
		parent := idx / 2
		side := int(idx & 1) // child 2i enters side 0, child 2i+1 side 1
		n := r.node(parent)
		if !n.children.TestAndSetSide(p, side) {
			return false
		}
		if !n.owner.TestAndSetSide(p, 0) {
			return false
		}
		idx = parent
	}
	if r.fast != nil && !r.final.TestAndSetSide(p, 1) {
		return false // the tournament champion still has to beat the fast-path contender
	}
	shmem.NoteFast(p, shmem.EvTASWin)
	return true
}
