package shmem

// This file is the shared-state half of the two-phase object model. Every
// object in this repository is split into a runtime-independent blueprint
// (topology, geometry, layouts — compiled once per parameter point and
// cached process-wide) and an instantiation that stamps shared state onto
// one runtime's Mem. Instantiation is bulk: both runtimes allocate
// register arenas (Mem.NewRegs). Re-instantiation is free: Reset restores
// shared state in place (Reg.Restore, RegArena.Reset), without
// reallocating the object graph.

// Resettable is implemented by instantiated objects whose shared state can
// be restored to its initial (just-instantiated) value without
// reallocation. Reset must only be called between executions — no process
// may be running against the object — and charges no simulated steps: like
// allocation, it is bookkeeping outside the shared-memory model.
//
// After Reset, an execution against the object is indistinguishable from
// one against a freshly instantiated copy: for a fixed (seed, adversary)
// the simulator produces bit-identical Stats either way (the reuse
// equivalence tests pin this down).
type Resettable interface {
	Reset()
}

// RegArena is a block of registers bulk-allocated by Mem.NewRegs. All
// registers are initialized to zero and share backing storage, so
// instantiating an object of n registers costs O(1) allocations instead of
// n, and Reset restores the whole block in one sweep. Reg(i) and CASReg(i)
// address the same underlying word: each runtime backs Reg and CASReg with
// its one register type.
type RegArena interface {
	// Len returns the number of registers in the arena.
	Len() int
	// Reg returns register i as a plain register.
	Reg(i int) Reg
	// CASReg returns register i with its compare-and-swap face.
	CASReg(i int) CASReg
	// Reset restores every register in the arena to zero. Like
	// Reg.Restore, it must only run between executions.
	Reset()
}
