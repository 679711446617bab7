// Package shmem defines the asynchronous shared-memory abstraction that all
// algorithms in this repository are written against, plus a native runtime
// that executes them on real goroutines and sync/atomic primitives.
//
// The model follows Section 2 of the paper: processes communicate through
// multiple-writer multiple-reader atomic registers, algorithms may flip local
// coins, and complexity is measured in process steps (reads and writes; all
// coin flips between two shared-memory operations count as part of one step).
// Hardware test-and-set (one CAS) is available at unit cost, matching the
// paper's "atomic test-and-set operations are available on most modern
// machines" accounting.
//
// Two runtimes implement this abstraction:
//
//   - the native runtime in this package: real goroutines, sync/atomic
//     registers, wall-clock benchmarks;
//   - internal/sim: a deterministic lock-step scheduler with a pluggable
//     strong adaptive adversary, exact step accounting, and crash injection.
//
// Algorithm code is identical under both, and the execution layer
// (internal/exec) orchestrates k-process executions, fault injection, and
// trace record/replay uniformly across them (natively via the StepHook in
// hook.go).
package shmem

// Op classifies a shared-memory step for accounting purposes.
type Op uint8

// Step kinds. OpRead and OpWrite are register operations; OpCAS is a
// unit-cost hardware test-and-set/compare-and-swap step.
const (
	OpRead Op = iota
	OpWrite
	OpCAS
	numOps
)

// String returns the short human-readable name of the op.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCAS:
		return "cas"
	default:
		return "op?"
	}
}

// Event classifies accounting events that are not shared-memory steps.
type Event uint8

// Accounting events. They do not consume simulated time; benchmarks use them
// to report the quantities the paper states bounds for (e.g. the number of
// test-and-set objects a process enters).
const (
	EvTASEnter   Event = iota // process entered a top-level test-and-set object
	EvTASWin                  // process won a top-level test-and-set object
	EvTAS2Enter               // process entered an internal two-process TAS
	EvSplitter                // process traversed one splitter
	EvComparator              // process traversed one renaming-network comparator
	numEvents
)

// Proc is the per-process execution context. Exactly one goroutine uses a
// given Proc; implementations are not safe for concurrent use by multiple
// goroutines.
type Proc interface {
	// ID returns the process index in [0, k).
	ID() int
	// Coin returns a uniform random value in [0, n). Coin flips are local
	// and free; the paper folds them into the next shared-memory step.
	Coin(n uint64) uint64
	// Step accounts for (and, in the simulator, yields at) one
	// shared-memory operation. Register implementations call this; user
	// code normally does not.
	Step(op Op)
	// Note records a non-step accounting event.
	Note(ev Event)
	// Now returns a monotone logical clock reading used to timestamp
	// operation intervals for the linearizability and monotone-consistency
	// checkers. In the simulator this is the global step index. Natively it
	// is the process's own step count (monotone per process, not
	// comparable across processes); a recorded native execution takes its
	// global order from the recorder (internal/exec).
	Now() uint64
}

// Reg is a multiple-writer multiple-reader atomic register holding a uint64.
// Algorithms pack small tuples (round, coin, ...) into the word.
type Reg interface {
	Read(p Proc) uint64
	Write(p Proc, v uint64)
}

// CASReg is a register that additionally supports a unit-cost
// compare-and-swap, the hardware test-and-set primitive of Section 2.
type CASReg interface {
	Reg
	// CompareAndSwap atomically replaces old with new and reports success.
	CompareAndSwap(p Proc, old, new uint64) bool
}

// Mem allocates shared objects bound to one runtime. Objects allocated from
// one runtime's Mem must only be used by that runtime's Procs.
type Mem interface {
	NewReg(init uint64) Reg
	NewCASReg(init uint64) CASReg
}

// Runtime runs a group of processes against shared objects allocated from
// its Mem.
type Runtime interface {
	Mem
	// Run executes body once per process, with IDs 0..k-1, and returns the
	// accounting for the whole execution. Run blocks until every process
	// has returned (or, in the simulator, crashed or hit the step cap).
	Run(k int, body func(p Proc)) *Stats
}

// OpCounts is the per-process accounting record.
type OpCounts struct {
	Ops    [numOps]uint64
	Events [numEvents]uint64
	Coins  uint64
}

// Steps returns the total number of shared-memory steps taken.
func (c *OpCounts) Steps() uint64 {
	var s uint64
	for _, v := range c.Ops {
		s += v
	}
	return s
}

// Stats aggregates accounting over one execution.
type Stats struct {
	PerProc []OpCounts
	Crashed []bool // nil when the runtime does not inject crashes
	// StepCapHit reports that the simulator aborted the run because it
	// exceeded its step budget (indicates livelock or an adversary that
	// starves termination beyond the configured bound).
	StepCapHit bool
}

// TotalSteps returns the total step complexity of the execution.
func (s *Stats) TotalSteps() uint64 {
	var t uint64
	for i := range s.PerProc {
		t += s.PerProc[i].Steps()
	}
	return t
}

// MaxSteps returns the maximum per-process step complexity.
func (s *Stats) MaxSteps() uint64 {
	var m uint64
	for i := range s.PerProc {
		if v := s.PerProc[i].Steps(); v > m {
			m = v
		}
	}
	return m
}

// MaxEvent returns the maximum per-process count of the given event.
func (s *Stats) MaxEvent(ev Event) uint64 {
	var m uint64
	for i := range s.PerProc {
		if v := s.PerProc[i].Events[ev]; v > m {
			m = v
		}
	}
	return m
}

// TotalEvent returns the total count of the given event.
func (s *Stats) TotalEvent(ev Event) uint64 {
	var t uint64
	for i := range s.PerProc {
		t += s.PerProc[i].Events[ev]
	}
	return t
}
