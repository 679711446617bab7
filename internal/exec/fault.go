package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shmem"
	"repro/internal/sim"
)

// FaultPlan is a runtime-agnostic failure schedule for one k-process
// execution: crash-at-step, stall windows, and dynamic process pausing.
// The same plan arms on both runtimes through one sim.CrashPlan — on the
// simulator as the adversary, on the native runtime behind a
// shmem.StepHook (type-dispatched: disarmed executions run the unchanged
// step path) that asks it whether a crash is due — with the same
// process-local semantics: positions are expressed in a process's own
// completed step count, the one clock both runtimes share.
//
// On the simulator a plan is deterministic: the same (seed, adversary,
// FaultPlan) produces the same execution and the same EventLog. Pausing is
// the exception — it is a live chaos control (Pause/Resume may be called
// from outside the execution at any time), so its timing is inherently
// racy; it is honored at decision points on both runtimes but is not part
// of the deterministic contract.
//
// The zero value is an empty plan; configuration methods return the plan
// for chaining and must complete before the plan is armed.
type FaultPlan struct {
	crashAt map[int]uint64
	stalls  []procStall // in the order they were scheduled

	mu     sync.Mutex
	paused map[int]*atomic.Bool
}

// Stall describes one stall window: when the process reaches AtStep
// completed steps, it is held back — for Steps global steps on the
// simulator (other processes run ahead), and for Wall wall-clock time on
// the native runtime.
type Stall struct {
	AtStep uint64
	Steps  uint64
	Wall   time.Duration
}

type procStall struct {
	proc int
	Stall
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

// StallAt schedules a stall window for proc at the given completed-step
// count: forSteps global steps on the simulator, wall wall-clock time on
// the native runtime.
func (f *FaultPlan) StallAt(proc int, step, forSteps uint64, wall time.Duration) *FaultPlan {
	f.stalls = append(f.stalls, procStall{proc, Stall{AtStep: step, Steps: forSteps, Wall: wall}})
	return f
}

// Pause holds process proc at its next step boundary until Resume. Safe to
// call from any goroutine, including while an execution is in flight.
func (f *FaultPlan) Pause(proc int) { f.gate(proc).Store(true) }

// Resume releases a paused process.
func (f *FaultPlan) Resume(proc int) { f.gate(proc).Store(false) }

func (f *FaultPlan) gate(proc int) *atomic.Bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.paused == nil {
		f.paused = make(map[int]*atomic.Bool)
	}
	g := f.paused[proc]
	if g == nil {
		g = new(atomic.Bool)
		f.paused[proc] = g
	}
	return g
}

// faults is an Execution's per-run fault state, rearmed in place by every
// armed Run so a warm Execution arms a plan without allocating: the crash
// plan both runtimes consult, the pause gates, and the stall windows.
type faults struct {
	plan  *FaultPlan
	crash sim.CrashPlan
	gates []*atomic.Bool // pause gates of processes 0..k-1
	// stallFired[i] records that plan.stalls[i] has opened; stallUntil[p]
	// benches simulated process p until the global clock reaches it.
	stallFired []bool
	stallUntil []uint64
}

// arm rearms the state for a k-process run of plan over inner (the
// simulator's adversary; nil on the native runtime). Gates are fetched for
// every process up front, so the per-step path never takes the plan's lock
// and a Pause arriving mid-run is still seen.
func (f *faults) arm(plan *FaultPlan, inner sim.Adversary, k int) {
	f.plan = plan
	f.crash.Rearm(inner, f, k)
	for p, step := range plan.crashAt {
		f.crash.CrashAt(p, step)
	}
	f.gates = f.gates[:0]
	for p := 0; p < k; p++ {
		f.gates = append(f.gates, plan.gate(p))
	}
	f.stallFired = cleared(f.stallFired, len(plan.stalls))
	f.stallUntil = cleared(f.stallUntil, k)
}

// cleared returns s resized to n zero values, reusing its backing array.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// dueStall returns the first unfired stall window proc has reached, marking
// it fired, or nil.
func (f *faults) dueStall(proc int, steps uint64) *Stall {
	for i := range f.plan.stalls {
		s := &f.plan.stalls[i]
		if s.proc == proc && !f.stallFired[i] && steps >= s.AtStep {
			f.stallFired[i] = true
			return &s.Stall
		}
	}
	return nil
}

// Substitute implements sim.Bench, holding back stalled and paused
// processes on the simulator. It first opens due stall windows for every
// ready process, so a window fires at the boundary it names even if the
// inner schedule ignores that process. A benched choice is replaced by the
// lowest-numbered ready unbenched process; if every ready process is
// benched the choice stands, preserving liveness.
func (f *faults) Substitute(v *sim.View, p int) int {
	for q, ready := range v.Ready {
		if ready {
			if st := f.dueStall(q, v.Steps[q]); st != nil {
				f.stallUntil[q] = v.Clock + st.Steps
			}
		}
	}
	if !f.benched(v, p) {
		return p
	}
	for q, ready := range v.Ready {
		if ready && !f.benched(v, q) {
			return q
		}
	}
	return p
}

// benched reports whether p is inside a stall window or paused.
func (f *faults) benched(v *sim.View, p int) bool {
	return v.Clock < f.stallUntil[p] || f.gates[p].Load()
}

// --- Native arming: the step hook. ---

// nativeHook implements shmem.StepHook: it injects the FaultPlan's faults
// and/or records the execution into an EventLog. Recording serializes the
// execution to obtain a sound total order: the recorder's lock is held from
// a step's log append until the process's next hook entry, and the process
// performs the operation inside that window, so operations occur in exactly
// the recorded order (the property sim.FromTrace replay depends on). The
// cost is paid only while armed; see BENCHMARKS.md for measurements.
type nativeHook struct {
	faults *faults // nil when no plan is armed
	log    *EventLog

	mu sync.Mutex
	// held[p] is true while process p holds mu (between its last append and
	// its next hook entry). Only process p touches held[p].
	held []bool
}

// OnStep consults the plan, then records the step. The proc's previous
// operation has completed by the time it re-enters the hook, so the held
// lock is released first — pause and stall waits never hold the recorder
// lock.
func (h *nativeHook) OnStep(p *shmem.NativeProc, op shmem.Op) bool {
	id := p.ID()
	if id < len(h.held) && h.held[id] {
		h.held[id] = false
		h.mu.Unlock()
	}
	if f := h.faults; f != nil {
		for f.gates[id].Load() {
			time.Sleep(50 * time.Microsecond)
		}
		if st := f.dueStall(id, p.StepsTaken()); st != nil && st.Wall > 0 {
			time.Sleep(st.Wall)
		}
		if f.crash.Due(id, p.StepsTaken()) {
			if h.log != nil {
				h.mu.Lock()
				h.log.append(Event{Proc: int32(id), Kind: EvCrash, Op: op})
				h.mu.Unlock()
			}
			return false
		}
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
