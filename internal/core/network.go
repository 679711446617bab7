package core

import (
	"fmt"

	"repro/internal/shmem"
	"repro/internal/sortnet"
	"repro/internal/splitter"
	"repro/internal/tas"
)

// RenamingNetwork is the Section 5 construction: a sorting network with
// every comparator replaced by a two-process test-and-set. A process enters
// on the input wire of its initial name, moves up when it wins a comparator
// and down when it loses, and returns the index of the output wire it
// reaches.
//
// Theorem 1: for any sorting network of width M this solves strong adaptive
// renaming for initial names in [1, M] — the k participants return exactly
// the names 1..k — with step complexity proportional to the network depth.
type RenamingNetwork struct {
	bp  *RenamingNetworkBlueprint
	mem shmem.Mem
	mk  tas.SidedMaker

	// comps lazily maps stage<<32|index to the comparator's TAS object.
	comps *shmem.LazyTable[tas.Sided]
}

// NewRenamingNetwork builds a renaming network over an explicit sorting
// network (compile-once + instantiate; the lookup tables are cached
// process-wide per network). Comparator TAS objects are allocated lazily:
// in an execution with contention k only O(k·depth) of them are ever
// touched.
func NewRenamingNetwork(mem shmem.Mem, net *sortnet.Network, mk tas.SidedMaker) *RenamingNetwork {
	return CompileRenamingNetwork(net).Instantiate(mem, mk)
}

// Width returns the number of input wires (the bound M on initial names).
func (rn *RenamingNetwork) Width() int { return rn.bp.net.W }

// Depth returns the network depth, which bounds the number of test-and-set
// objects any process enters.
func (rn *RenamingNetwork) Depth() int { return rn.bp.net.Depth() }

// Reset restores every allocated comparator to its unentered state,
// keeping the lazily built comparator table. Between executions only.
func (rn *RenamingNetwork) Reset() {
	rn.comps.Range(func(_ uint64, s tas.Sided) bool {
		resetSided(s)
		return true
	})
}

func (rn *RenamingNetwork) comp(stage int, ci int32) tas.Sided {
	key := uint64(stage)<<32 | uint64(uint32(ci))
	if t, ok := rn.comps.Lookup(key); ok {
		return t
	}
	return rn.comps.Insert(key, rn.mk(rn.mem))
}

// Rename routes the process holding initial name uid ∈ [1, M] through the
// network and returns its output name in [1, k].
func (rn *RenamingNetwork) Rename(p shmem.Proc, uid uint64) uint64 {
	if uid < 1 || uid > uint64(rn.bp.net.W) {
		panic(fmt.Sprintf("core: initial name %d outside [1,%d]", uid, rn.bp.net.W))
	}
	wire := int32(uid - 1)
	for s, stage := range rn.bp.net.Stages {
		ci := rn.bp.lookup[s][wire]
		if ci < 0 {
			continue
		}
		c := stage[ci]
		side := 0
		if wire == c.B {
			side = 1
		}
		shmem.NoteFast(p, shmem.EvComparator)
		if rn.comp(s, ci).TestAndSetSide(p, side) {
			wire = c.A // winner moves up
		} else {
			wire = c.B // loser moves down
		}
	}
	return uint64(wire) + 1
}

// StrongAdaptive is the Section 6.2 algorithm, the paper's headline result:
// optimal-time adaptive strong renaming. Stage one acquires a temporary
// name from a randomized splitter tree (TempName, O(log k) steps and a
// name ≤ k^c w.h.p.); stage two routes the process through a renaming
// network built on the unbounded adaptive sorting network of Section 6.1,
// entering on the wire of its temporary name.
//
// Theorem 3: names are exactly 1..k; the step complexity is O(log k)
// two-process test-and-set entries, i.e. O(log k) steps in expectation and
// O(log² k) with high probability (with the paper's AKS base these
// constants drop by one log factor; we use the constructible Batcher base,
// c = 2 — see BENCHMARKS.md).
type StrongAdaptive struct {
	mem  shmem.Mem
	mk   tas.SidedMaker
	tree TempNamer
	ad   *sortnet.Adaptive

	// comps lazily maps Comp.Key() to the comparator's shared TAS object.
	comps *shmem.LazyTable[tas.Sided]
}

var _ Renamer = (*StrongAdaptive)(nil)

// TempNamer produces unique temporary names ≥ 1 (stage one). It is an
// interface so tests can exercise the renaming network with adversarially
// chosen temporary names.
type TempNamer interface {
	Acquire(p shmem.Proc, uid uint64) uint64
}

// NewStrongAdaptive builds the two-stage algorithm. The adaptive sorting
// network spans 2^32 wires; nothing is materialized, and a process entering
// on wire t only ever touches O(log² t) comparators.
func NewStrongAdaptive(mem shmem.Mem, tree TempNamer, mk tas.SidedMaker) *StrongAdaptive {
	return NewStrongAdaptiveWithBase(mem, tree, mk, sortnet.BaseOEM)
}

// NewStrongAdaptiveWithBase is NewStrongAdaptive with an explicit base
// sorting network for the adaptive construction (the ablation knob of
// BENCHMARKS.md; both available bases have depth exponent c = 2).
// Compile-once + instantiate under the hood.
func NewStrongAdaptiveWithBase(mem shmem.Mem, tree TempNamer, mk tas.SidedMaker, base sortnet.Base) *StrongAdaptive {
	return CompileStrongAdaptive(base).InstantiateWithTempNamer(mem, tree, mk)
}

// Reset restores the instance to its unentered state — the splitter tree
// and every allocated comparator — keeping the lazily built object graph.
// Between executions only. The TempNamer must be resettable (the standard
// splitter tree is).
func (sa *StrongAdaptive) Reset() {
	sa.tree.(shmem.Resettable).Reset()
	sa.comps.Range(func(_ uint64, s tas.Sided) bool {
		resetSided(s)
		return true
	})
}

func (sa *StrongAdaptive) comp(c sortnet.Comp) tas.Sided {
	key := c.Key()
	if t, ok := sa.comps.Lookup(key); ok {
		return t
	}
	return sa.comps.Insert(key, sa.mk(sa.mem))
}

// ComparatorObjects returns the number of comparator TAS objects allocated
// so far — the adaptive space probe.
func (sa *StrongAdaptive) ComparatorObjects() int {
	return sa.comps.Len()
}

// SplitterNodes returns the number of splitter-tree nodes allocated by
// stage one, or 0 if the TempNamer is not the standard splitter tree.
func (sa *StrongAdaptive) SplitterNodes() int {
	if t, ok := sa.tree.(*splitter.Tree); ok {
		return t.Size()
	}
	return 0
}

// Rename returns a name in [1, k]. uid must be globally unique and nonzero.
func (sa *StrongAdaptive) Rename(p shmem.Proc, uid uint64) uint64 {
	tmp := sa.tree.Acquire(p, uid) // stage one: temporary name ≥ 1
	wire := tmp - 1
	out, _ := sa.ad.Walk(wire, func(c sortnet.Comp, up, down uint64) bool {
		side := 0
		if wire == down {
			side = 1
		}
		shmem.NoteFast(p, shmem.EvComparator)
		won := sa.comp(c).TestAndSetSide(p, side)
		if won {
			wire = up
		} else {
			wire = down
		}
		return won
	})
	return out + 1
}
