package core

import (
	"sync"

	"repro/internal/shmem"
	"repro/internal/sortnet"
	"repro/internal/splitter"
	"repro/internal/tas"
)

// This file holds the compiled-blueprint half of the two-phase object
// model for the package's renaming algorithms. A blueprint captures
// everything about an object that does not depend on the runtime, the
// seed, or the adversary — batch layouts, comparator lookup tables, the
// adaptive network topology — and is compiled once per parameter point and
// cached process-wide. Instantiate stamps the shared state onto one
// runtime's Mem; Reset (on the instantiated objects) restores that state
// so one instantiation serves many executions. For a fixed
// (seed, adversary), an execution against a reset instance is bit-identical
// to one against a fresh instantiation (see the reuse equivalence tests).

// resetSided resets one internal test-and-set object. All of the
// repository's Sided flavors (TwoProc, Unit, the LL/SC-compiled TAS) are
// resettable; a custom unresettable maker makes the owning object
// unresettable too — re-instantiate it instead.
func resetSided(s tas.Sided) {
	s.(shmem.Resettable).Reset()
}

// BitBatchingBlueprint is the runtime-independent shape of the Section 4
// algorithm: the slot count, the per-batch probe budget, and the geometric
// batch layout of Figure 1.
type BitBatchingBlueprint struct {
	n       int
	probes  int
	batches []Batch
}

var bitBatchingBlueprints sync.Map // n -> *BitBatchingBlueprint

// CompileBitBatching returns the process-wide cached blueprint for an
// n-slot BitBatching instance. n must be at least 1.
func CompileBitBatching(n int) *BitBatchingBlueprint {
	if n < 1 {
		panic("core: BitBatching needs n >= 1")
	}
	if bp, ok := bitBatchingBlueprints.Load(n); ok {
		return bp.(*BitBatchingBlueprint)
	}
	bp := &BitBatchingBlueprint{
		n:       n,
		probes:  3 * log2ceil(n),
		batches: BatchLayout(n),
	}
	if bp.probes < 1 {
		bp.probes = 1
	}
	got, _ := bitBatchingBlueprints.LoadOrStore(n, bp)
	return got.(*BitBatchingBlueprint)
}

// N returns the namespace size.
func (bp *BitBatchingBlueprint) N() int { return bp.n }

// Instantiate stamps the blueprint onto mem: the n-slot vector of adaptive
// test-and-set objects, with internal two-process objects built by mk.
func (bp *BitBatchingBlueprint) Instantiate(mem shmem.Mem, mk tas.SidedMaker) *BitBatching {
	b := &BitBatching{bp: bp, slots: make([]*tas.RatRace, bp.n)}
	for i := range b.slots {
		b.slots[i] = tas.NewRatRace(mem, mk)
	}
	return b
}

// RenamingNetworkBlueprint is the runtime-independent shape of a Section 5
// renaming network: the sorting network plus the per-stage wire-to-
// comparator lookup tables. Compiled once per *sortnet.Network and cached
// process-wide (materialized networks are themselves shared, see
// sortnet.SharedOEMNet).
type RenamingNetworkBlueprint struct {
	net *sortnet.Network
	// lookup[s][w] is the index into stage s of the comparator touching
	// wire w, or -1.
	lookup [][]int32
}

var rnBlueprints sync.Map // *sortnet.Network -> *RenamingNetworkBlueprint

// CompileRenamingNetwork returns the cached blueprint over an explicit
// sorting network.
func CompileRenamingNetwork(net *sortnet.Network) *RenamingNetworkBlueprint {
	if bp, ok := rnBlueprints.Load(net); ok {
		return bp.(*RenamingNetworkBlueprint)
	}
	bp := &RenamingNetworkBlueprint{
		net:    net,
		lookup: make([][]int32, len(net.Stages)),
	}
	for s, stage := range net.Stages {
		row := make([]int32, net.W)
		for i := range row {
			row[i] = -1
		}
		for ci, c := range stage {
			row[c.A], row[c.B] = int32(ci), int32(ci)
		}
		bp.lookup[s] = row
	}
	got, _ := rnBlueprints.LoadOrStore(net, bp)
	return got.(*RenamingNetworkBlueprint)
}

// Width returns the number of input wires (the bound M on initial names).
func (bp *RenamingNetworkBlueprint) Width() int { return bp.net.W }

// Depth returns the network depth, which bounds the number of
// test-and-set objects any process enters.
func (bp *RenamingNetworkBlueprint) Depth() int { return bp.net.Depth() }

// Instantiate stamps the blueprint onto mem. Comparator TAS objects are
// allocated lazily: in an execution with contention k only O(k·depth) of
// them are ever touched.
func (bp *RenamingNetworkBlueprint) Instantiate(mem shmem.Mem, mk tas.SidedMaker) *RenamingNetwork {
	return &RenamingNetwork{
		bp:    bp,
		mem:   mem,
		mk:    mk,
		comps: shmem.NewLazyTable[tas.Sided](),
	}
}

// StrongAdaptiveBlueprint is the runtime-independent shape of the
// Section 6.2 algorithm: the (process-wide shared) unbounded adaptive
// sorting network for the chosen base. The splitter tree has no
// precomputable shape — it is unbounded and grows adaptively — so the
// blueprint is exactly the stage-two topology.
type StrongAdaptiveBlueprint struct {
	base sortnet.Base
	ad   *sortnet.Adaptive
}

var saBlueprints sync.Map // sortnet.Base -> *StrongAdaptiveBlueprint

// CompileStrongAdaptive returns the cached blueprint for the given base
// sorting network.
func CompileStrongAdaptive(base sortnet.Base) *StrongAdaptiveBlueprint {
	if bp, ok := saBlueprints.Load(base); ok {
		return bp.(*StrongAdaptiveBlueprint)
	}
	bp := &StrongAdaptiveBlueprint{base: base, ad: sortnet.SharedAdaptive(base)}
	got, _ := saBlueprints.LoadOrStore(base, bp)
	return got.(*StrongAdaptiveBlueprint)
}

// Network exposes the underlying adaptive sorting network.
func (bp *StrongAdaptiveBlueprint) Network() *sortnet.Adaptive { return bp.ad }

// Instantiate stamps the blueprint onto mem with a fresh splitter tree as
// the TempNamer and internal two-process objects built by mk.
func (bp *StrongAdaptiveBlueprint) Instantiate(mem shmem.Mem, mk tas.SidedMaker) *StrongAdaptive {
	return bp.InstantiateWithTempNamer(mem, splitter.NewTree(mem), mk)
}

// InstantiateWithTempNamer is Instantiate with an explicit stage-one
// TempNamer (tests inject adversarially chosen temporary names).
func (bp *StrongAdaptiveBlueprint) InstantiateWithTempNamer(mem shmem.Mem, tree TempNamer, mk tas.SidedMaker) *StrongAdaptive {
	return &StrongAdaptive{
		mem:   mem,
		mk:    mk,
		tree:  tree,
		ad:    bp.ad,
		comps: shmem.NewLazyTable[tas.Sided](),
	}
}
