// Package exec is the unified execution layer: runtime-agnostic
// orchestration of k-process executions over both runtimes (the native
// runtime in internal/shmem and the deterministic simulator in
// internal/sim), with fault injection and deterministic trace
// record/replay.
//
// Before this layer, every fault-injection and scheduling capability lived
// only in the simulator: the native runtime — the one that carries the
// serving engine — could neither inject crashes nor record what happened.
// exec closes that split:
//
//   - An Execution owns the participant lifecycle of repeated k-process
//     runs on one runtime (reusing the native RunGroup machinery, so the
//     steady state stays allocation-free).
//   - A FaultPlan (crash-at-step, stall windows, pausing) arms on either
//     runtime through one sim.CrashPlan: natively behind a step hook whose
//     dispatch is type-based (zero cost while disarmed), on the simulator
//     as the adversary, wrapping the runtime's own.
//   - An EventLog records the execution — every scheduling decision in a
//     global total order with per-process sequence numbers, plus
//     operation-level marks — on either runtime. A log recorded on the
//     native runtime replays bit-identically on the simulator through
//     sim.FromTrace (see Replay), turning any hardware interleaving,
//     crashes included, into a reproducible deterministic execution.
//   - The trace checkers (check.go) run the paper's validity conditions
//     (strong renaming: unique names in [1..k]; counter monotone
//     consistency) over recorded logs from either runtime.
package exec

import (
	"fmt"

	"repro/internal/shmem"
	"repro/internal/sim"
)

// Execution orchestrates repeated k-process executions on one runtime,
// with optional fault injection and trace recording. It is not safe for
// concurrent use; a serving pool gives each instance its own Execution.
type Execution struct {
	rt shmem.Runtime
	k  int

	n     *shmem.Native   // non-nil when rt is the native runtime
	group *shmem.RunGroup // native: reusable proc contexts
	s     *sim.Runtime    // non-nil when rt is the simulator

	plan   *FaultPlan
	faults faults     // the plan's per-run state, rearmed by each Run
	hook   nativeHook // the native step hook, rearmed by each armed Run
	log    *EventLog
	rec    *nativeHook // &hook while the current/last native run is armed
	// simTraced remembers that we installed a trace observer on the sim
	// runtime, so StopRecording-then-Run can remove it (the observer would
	// otherwise survive Reset and keep appending into the stale log).
	simTraced bool
}

// New returns an execution context for k-process runs on rt. Both bundled
// runtimes get the full feature set; a third-party Runtime still runs, but
// arming faults or recording on it panics (there is no hook path into its
// step loop).
func New(rt shmem.Runtime, k int) *Execution {
	if k <= 0 {
		panic("exec: execution needs at least one process")
	}
	e := &Execution{rt: rt, k: k}
	switch t := rt.(type) {
	case *shmem.Native:
		e.n = t
		e.group = t.NewRunGroup(k)
		e.hook.held = make([]bool, k)
	case *sim.Runtime:
		e.s = t
	}
	return e
}

// K returns the execution's process count.
func (e *Execution) K() int { return e.k }

// Runtime returns the underlying runtime.
func (e *Execution) Runtime() shmem.Runtime { return e.rt }

// Faults arms plan for subsequent Runs (nil disarms — always legal, also
// on third-party runtimes). The plan's static faults fire per run — crash
// and stall positions are rearmed in place by each Run, so one plan drives
// many executions without allocating.
func (e *Execution) Faults(plan *FaultPlan) {
	if plan != nil {
		e.requireHookable("fault injection")
	}
	e.plan = plan
}

// Record arms trace recording and returns the log, which is rewritten by
// each subsequent Run (read it between runs). On the native runtime,
// recording serializes the execution to obtain a sound total operation
// order — the armed cost documented in BENCHMARKS.md; disarmed executions
// are unaffected.
func (e *Execution) Record() *EventLog {
	e.requireHookable("trace recording")
	if e.log == nil {
		e.log = &EventLog{}
	}
	return e.log
}

// StopRecording disarms the recorder; the log keeps its last contents.
func (e *Execution) StopRecording() { e.log = nil }

func (e *Execution) requireHookable(what string) {
	if e.n == nil && e.s == nil {
		panic(fmt.Sprintf("exec: %s needs the native or simulated runtime, not %T", what, e.rt))
	}
}

// Run executes body once per process and returns the execution's
// accounting. Stats.Crashed reports plan-injected crashes on both runtimes.
// On the simulator each Run consumes the runtime, exactly as sim.Run does:
// Reset it (fresh seed, fresh adversary) between runs.
func (e *Execution) Run(body func(p shmem.Proc)) *shmem.Stats {
	switch {
	case e.n != nil:
		e.rec = nil
		// Any non-nil plan arms, even one with no static faults yet: Pause
		// may arrive mid-run, and the gates are only polled while armed.
		if e.plan == nil && e.log == nil {
			e.group.SetHook(nil)
		} else {
			if e.log != nil {
				e.log.begin(e.k, e.n.Seed(), RuntimeNative)
			}
			e.hook.log, e.hook.faults = e.log, nil
			if e.plan != nil {
				e.faults.arm(e.plan, nil, e.k)
				e.hook.faults = &e.faults
			}
			e.rec = &e.hook
			e.group.SetHook(e.rec)
		}
		return e.group.Run(body)
	case e.s != nil:
		if e.plan != nil {
			e.faults.arm(e.plan, e.s.Adversary(), e.k)
			e.s.SetAdversary(&e.faults.crash)
		}
		if e.log != nil {
			e.log.begin(e.k, e.s.Seed(), RuntimeSim)
			e.s.SetTrace(e.log.simObserver())
			e.simTraced = true
		} else if e.simTraced {
			// We installed the previous observer; remove it so a stopped
			// recording does not keep appending into the stale log.
			e.s.SetTrace(nil)
			e.simTraced = false
		}
		return e.s.Run(e.k, body)
	default:
		return e.rt.Run(e.k, body)
	}
}

// mark routes an annotation into the armed log with the right
// synchronization for the runtime (no-op when not recording, so bodies can
// mark unconditionally).
func (e *Execution) mark(p shmem.Proc, tag MarkTag, v uint64) {
	if e.log == nil {
		return
	}
	if e.rec != nil {
		e.rec.mark(p, tag, v)
		return
	}
	e.log.append(Event{Proc: int32(p.ID()), Kind: EvMark, Tag: tag, Val: v})
}

// MarkName records the name process p acquired (input to
// CheckRenamingTrace).
func (e *Execution) MarkName(p shmem.Proc, name uint64) { e.mark(p, TagName, name) }

// MarkIncStart brackets the start of a counter increment.
func (e *Execution) MarkIncStart(p shmem.Proc) { e.mark(p, TagIncStart, 0) }

// MarkIncEnd brackets the end of a counter increment.
func (e *Execution) MarkIncEnd(p shmem.Proc) { e.mark(p, TagIncEnd, 0) }

// MarkReadStart brackets the start of a counter read.
func (e *Execution) MarkReadStart(p shmem.Proc) { e.mark(p, TagReadStart, 0) }

// MarkRead records the value a counter read returned, ending the interval
// a MarkReadStart opened.
func (e *Execution) MarkRead(p shmem.Proc, v uint64) { e.mark(p, TagRead, v) }

// Replay returns a fresh simulator that re-executes a recorded log: the
// recorded seed re-derives every process's coin stream and sim.FromTrace
// forces the recorded schedule, so running the same body against a
// same-shaped object graph reproduces the recorded execution bit for bit —
// same names, same per-process operation counts, same crashes — whichever
// runtime the log came from.
func Replay(log *EventLog) *sim.Runtime {
	return sim.New(log.Seed, sim.FromTrace(log.Schedule()))
}
