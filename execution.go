package renaming

import (
	"repro/internal/exec"
	"repro/internal/sim"
	"time"
)

// This file is the facade over internal/exec, the unified execution layer:
// runtime-agnostic orchestration of k-process executions with fault
// injection and deterministic trace record/replay on both runtimes. See
// doc.go ("The execution layer") for the model and BENCHMARKS.md for the
// armed-vs-disarmed hook cost.

type (
	// Execution orchestrates repeated k-process executions on one runtime,
	// with optional fault injection (Faults) and trace recording (Record).
	Execution = exec.Execution
	// FaultPlan is a runtime-agnostic failure schedule: crash-at-step,
	// stall windows, and dynamic pausing, armed via Execution.Faults on
	// either runtime.
	FaultPlan = exec.FaultPlan
	// EventLog is the trace of one recorded execution: scheduling decisions
	// in a global total order with per-process sequence numbers, plus
	// operation-level marks.
	EventLog = exec.EventLog
)

// Event kinds and mark tags of recorded traces.
const (
	EvStep  = exec.EvStep
	EvCrash = exec.EvCrash
	EvMark  = exec.EvMark
)

// NewExecution returns an execution context for k-process runs on rt (the
// native runtime or the simulator; both support the full fault/record
// feature set).
//
//	rt := renaming.NewNative(42)
//	ex := renaming.NewExecution(rt, 8)
//	ex.Faults(renaming.NewFaultPlan().CrashAt(3, 100))
//	log := ex.Record()
//	ren := renaming.NewRenaming(rt)
//	st := ex.Run(func(p renaming.Proc) {
//	    ex.MarkName(p, ren.Rename(p, uint64(p.ID())+1))
//	})
//	err := renaming.CheckRenamingTrace(log) // survivors unique in [1..k]
//	sim := renaming.Replay(log)             // deterministic re-execution
func NewExecution(rt Runtime, k int) *Execution {
	return exec.New(rt, k)
}

// NewFaultPlan returns an empty fault plan; chain CrashAt/StallAt and use
// Pause/Resume for live chaos control.
func NewFaultPlan() *FaultPlan { return exec.NewFaultPlan() }

// CrashAtStep is a one-call plan crashing each listed process when it is
// about to take the step after the given number of its own completed
// steps — the positions CrashAt takes, as a FaultPlan that arms on either
// runtime.
func CrashAtStep(at map[int]uint64) *FaultPlan {
	plan := exec.NewFaultPlan()
	for p, s := range at {
		plan.CrashAt(p, s)
	}
	return plan
}

// StallAt is a one-call plan stalling process proc at the given
// completed-step count: forSteps global steps on the simulator, wall
// wall-clock time on the native runtime.
func StallAt(proc int, step, forSteps uint64, wall time.Duration) *FaultPlan {
	return exec.NewFaultPlan().StallAt(proc, step, forSteps, wall)
}

// Replay returns a fresh simulator re-executing a recorded log: the
// recorded seed re-derives every coin stream and the recorded schedule is
// forced via a trace adversary, so running the same body against a
// same-shaped object graph reproduces the recorded execution bit for bit —
// also when the log was recorded on the native runtime.
func Replay(log *EventLog) *SimRuntime { return exec.Replay(log) }

// FromTrace returns an adversary that forces an explicit schedule (the
// low-level half of Replay, for runs that need their own runtime options).
func FromTrace(log *EventLog) Adversary { return sim.FromTrace(log.Schedule()) }

// CheckRenamingTrace verifies the strong renaming contract over a recorded
// execution (names via Execution.MarkName): survivors' names are distinct,
// tight ({1..k}) when crash-free, within [1..k] under crashes.
func CheckRenamingTrace(log *EventLog) error { return exec.CheckRenamingTrace(log) }

// CheckCounterTrace verifies monotone consistency (Lemma 4) over a
// recorded counter execution (operations bracketed via
// MarkIncStart/MarkIncEnd/MarkReadStart/MarkRead).
func CheckCounterTrace(log *EventLog) error { return exec.CheckCounterTrace(log) }
