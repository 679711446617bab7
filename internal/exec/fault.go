package exec

import (
	"sync"

	"repro/internal/shmem"
	"repro/internal/sim"
)

// FaultPlan is a runtime-agnostic crash schedule for one k-process
// execution: the processes to crash, each at a count of its own completed
// steps, the one clock both runtimes share. The same plan arms on both
// runtimes through one sim.CrashPlan: on the simulator as the adversary,
// on the native runtime behind a shmem.StepHook (type-dispatched:
// disarmed executions run the unchanged step path) that asks it whether a
// crash is due. On the simulator a plan is deterministic: the same (seed,
// adversary, FaultPlan) produces the same execution and the same EventLog.
//
// The zero value is an empty plan; CrashAt returns the plan for chaining
// and must complete before the plan is armed.
type FaultPlan struct {
	crashAt map[int]uint64
}

// NewFaultPlan returns an empty plan.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// CrashAt schedules process proc to crash when it is about to take the step
// after completing step completed steps (0 crashes it before its first
// shared-memory operation). The pending operation never happens — the
// simulator's crash decision and the native hook veto agree on this.
func (f *FaultPlan) CrashAt(proc int, step uint64) *FaultPlan {
	if f.crashAt == nil {
		f.crashAt = make(map[int]uint64)
	}
	f.crashAt[proc] = step
	return f
}

// Crashes returns the number of crash entries the plan schedules (the
// number of processes it can kill per execution). Load reports use it to
// state how much failure a scenario offered, next to how much fired.
func (f *FaultPlan) Crashes() int { return len(f.crashAt) }

// arm rearms c in place with the plan's crash points for a k-process run
// over inner (the simulator's adversary; nil on the native runtime), so a
// warm Execution arms a plan without allocating.
func (f *FaultPlan) arm(c *sim.CrashPlan, inner sim.Adversary, k int) {
	c.Rearm(inner, k)
	for p, step := range f.crashAt {
		c.CrashAt(p, step)
	}
}

// --- Native arming: the step hook. ---

// nativeHook implements shmem.StepHook: it crashes the processes the
// FaultPlan names and/or records the execution into an EventLog. Recording
// serializes the execution to obtain a sound total order: the recorder's
// lock is held from a step's log append until the process's next hook
// entry, and the process performs the operation inside that window, so
// operations occur in exactly the recorded order (the property
// sim.FromTrace replay depends on). The cost is paid only while armed; see
// BENCHMARKS.md for measurements.
type nativeHook struct {
	crash *sim.CrashPlan // nil when no plan is armed
	log   *EventLog

	mu sync.Mutex
	// held[p] is true while process p holds mu (between its last append and
	// its next hook entry). Only process p touches held[p].
	held []bool
}

// OnStep consults the plan, then records the step. The proc's previous
// operation has completed by the time it re-enters the hook, so the held
// lock is released first.
func (h *nativeHook) OnStep(p *shmem.NativeProc, op shmem.Op) bool {
	id := p.ID()
	if id < len(h.held) && h.held[id] {
		h.held[id] = false
		h.mu.Unlock()
	}
	if h.crash != nil && h.crash.Due(id, p.StepsTaken()) {
		if h.log != nil {
			h.mu.Lock()
			h.log.append(Event{Proc: int32(id), Kind: EvCrash, Op: op})
			h.mu.Unlock()
		}
		return false
	}
	if h.log != nil {
		h.mu.Lock()
		h.log.append(Event{Proc: int32(id), Kind: EvStep, Op: op})
		if id < len(h.held) {
			h.held[id] = true // hold until the operation has completed
		} else {
			h.mu.Unlock()
		}
	}
	return true
}

// OnExit releases a held ordering lock when the process leaves the
// execution (normal return, crash, or panic).
func (h *nativeHook) OnExit(p *shmem.NativeProc, crashed bool) {
	id := p.ID()
	if id < len(h.held) && h.held[id] {
		h.held[id] = false
		h.mu.Unlock()
	}
}

// mark appends an annotation event with the recorder's synchronization: a
// proc holding the ordering lock appends in place (the mark lands right
// after its latest step), anyone else takes the lock briefly.
func (h *nativeHook) mark(p shmem.Proc, tag MarkTag, v uint64) {
	id := p.ID()
	if id < len(h.held) && h.held[id] {
		h.log.append(Event{Proc: int32(id), Kind: EvMark, Tag: tag, Val: v})
		return
	}
	h.mu.Lock()
	h.log.append(Event{Proc: int32(id), Kind: EvMark, Tag: tag, Val: v})
	h.mu.Unlock()
}
