package exec

import (
	"repro/internal/shmem"
	"repro/internal/sim"
)

// EventKind classifies trace events.
type EventKind uint8

// Event kinds. EvStep and EvCrash together form the execution's schedule
// (one entry per scheduling decision, in global order); EvMark entries are
// operation-level annotations (names acquired, counter values) interleaved
// at their real position, which is what the trace checkers consume.
const (
	EvStep EventKind = iota
	EvCrash
	EvMark
)

// String returns the short name of the kind.
func (k EventKind) String() string {
	switch k {
	case EvStep:
		return "step"
	case EvCrash:
		return "crash"
	case EvMark:
		return "mark"
	default:
		return "ev?"
	}
}

// MarkTag classifies EvMark events.
type MarkTag uint8

// Mark tags. Renaming executions record acquired names; counter executions
// bracket increments and reads so the monotone-consistency checker gets
// real operation intervals.
const (
	TagNone MarkTag = iota
	TagName
	TagIncStart
	TagIncEnd
	TagReadStart
	TagRead
)

// String returns the short name of the tag.
func (t MarkTag) String() string {
	switch t {
	case TagName:
		return "name"
	case TagIncStart:
		return "inc-start"
	case TagIncEnd:
		return "inc-end"
	case TagReadStart:
		return "read-start"
	case TagRead:
		return "read"
	default:
		return "tag?"
	}
}

// Event is one recorded trace entry.
type Event struct {
	// Seq is the event's position in the global order (dense from 0). On
	// the simulator, step events' Seq order equals the clock order; on the
	// native runtime it is the serialized order the recorder observed.
	Seq uint64
	// Proc is the process the event belongs to.
	Proc int32
	// PSeq is the per-process sequence number: the number of shared-memory
	// steps the process had completed when the event was recorded.
	PSeq uint64
	// Kind classifies the event.
	Kind EventKind
	// Op is the operation of an EvStep (or the operation an EvCrash
	// preempted).
	Op shmem.Op
	// Tag and Val carry an EvMark's annotation.
	Tag MarkTag
	Val uint64
}

// RuntimeKind records which runtime produced a log.
type RuntimeKind uint8

// Recording sources.
const (
	RuntimeUnknown RuntimeKind = iota
	RuntimeNative
	RuntimeSim
)

// String returns the short name of the runtime kind.
func (k RuntimeKind) String() string {
	switch k {
	case RuntimeNative:
		return "native"
	case RuntimeSim:
		return "sim"
	default:
		return "unknown"
	}
}

// EventLog is the trace of one recorded execution: every scheduling
// decision (steps and crashes) in a global total order, with per-process
// sequence numbers, plus operation-level marks. Arm one with
// Execution.Record; the log is rewritten by each subsequent Run.
//
// A log recorded on the simulator is a function of (seed, adversary,
// FaultPlan) — two runs of the same triple produce identical logs. A log
// recorded on the native runtime captures whichever interleaving the
// hardware produced, totally ordered by the recorder; replaying it through
// sim.FromTrace with the recorded seed reproduces the execution bit for
// bit (see Replay).
type EventLog struct {
	// K is the process count of the recorded execution.
	K int
	// Seed is the recorded runtime's coin seed.
	Seed uint64
	// Source is the runtime the log was recorded on.
	Source RuntimeKind

	events []Event
	pseq   []uint64
}

// begin rewinds the log for a new recording.
func (l *EventLog) begin(k int, seed uint64, src RuntimeKind) {
	l.K = k
	l.Seed = seed
	l.Source = src
	l.events = l.events[:0]
	if cap(l.pseq) < k {
		l.pseq = make([]uint64, k)
	}
	l.pseq = l.pseq[:k]
	for i := range l.pseq {
		l.pseq[i] = 0
	}
}

// append records one event, assigning its global and per-proc sequence
// numbers. Callers synchronize (the simulator is single-threaded; the
// native recorder holds its ordering lock).
func (l *EventLog) append(e Event) {
	e.Seq = uint64(len(l.events))
	if int(e.Proc) < len(l.pseq) {
		e.PSeq = l.pseq[e.Proc]
		if e.Kind == EvStep {
			l.pseq[e.Proc]++
		}
	}
	l.events = append(l.events, e)
}

// simObserver adapts the log to the simulator's trace callback.
func (l *EventLog) simObserver() func(sim.TraceEvent) {
	return func(e sim.TraceEvent) {
		kind := EvStep
		if e.Crash {
			kind = EvCrash
		}
		l.append(Event{Proc: int32(e.Proc), Kind: kind, Op: e.Op})
	}
}

// Events returns the recorded events in global order. The slice is the
// log's backing storage: read-only, valid until the next recorded Run.
func (l *EventLog) Events() []Event { return l.events }

// Len returns the number of recorded events.
func (l *EventLog) Len() int { return len(l.events) }

// Decisions returns the number of recorded scheduling decisions — steps
// plus crashes, the length of the schedule Schedule extracts.
func (l *EventLog) Decisions() int {
	n := 0
	for i := range l.events {
		if l.events[i].Kind != EvMark {
			n++
		}
	}
	return n
}

// Schedule extracts the scheduling decisions — the input to sim.FromTrace.
func (l *EventLog) Schedule() []sim.TraceStep {
	steps := make([]sim.TraceStep, 0, len(l.events))
	for i := range l.events {
		switch l.events[i].Kind {
		case EvStep:
			steps = append(steps, sim.TraceStep{Proc: l.events[i].Proc})
		case EvCrash:
			steps = append(steps, sim.TraceStep{Proc: l.events[i].Proc, Crash: true})
		}
	}
	return steps
}

// Crashed returns the per-process crash flags of the recorded execution.
func (l *EventLog) Crashed() []bool {
	c := make([]bool, l.K)
	for i := range l.events {
		if l.events[i].Kind == EvCrash {
			c[l.events[i].Proc] = true
		}
	}
	return c
}

// Names collects the TagName marks: names[p] is the name process p
// recorded, with ok[p] reporting whether it recorded one (crashed processes
// usually did not).
func (l *EventLog) Names() (names []uint64, ok []bool) {
	names = make([]uint64, l.K)
	ok = make([]bool, l.K)
	for i := range l.events {
		if e := &l.events[i]; e.Kind == EvMark && e.Tag == TagName {
			names[e.Proc] = e.Val
			ok[e.Proc] = true
		}
	}
	return names, ok
}
