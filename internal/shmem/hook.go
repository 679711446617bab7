package shmem

// This file is the native runtime's half of the execution layer
// (internal/exec): a per-proc step hook that fault injection and trace
// recording hang off. The contract mirrors the simulator's adversary
// boundary — the hook observes a process at the instant it is about to
// perform a shared-memory operation, before the operation happens and
// before it is accounted — but costs nothing when disarmed: hook dispatch
// is type-based, not branch-based. An armed execution runs its body behind
// a hookedProc wrapper, so the disarmed NativeProc step path (the Step the
// compiler inlines into the FastReg methods) is not touched at all — zero
// added instructions for the native hot loop and the serving pools.

// StepHook observes (and may veto) a native process's shared-memory steps.
// Implementations live in internal/exec; they are invoked on the process's
// own goroutine, so per-proc hook state needs no synchronization but
// cross-proc state (a trace recorder's global order) must synchronize
// internally.
type StepHook interface {
	// OnStep is called immediately before p performs op, with
	// p.StepsTaken() operations already completed. Returning false crashes
	// the process: the pending operation is never performed or accounted,
	// and the process body unwinds — the native analogue of the simulator
	// adversary's crash decision.
	OnStep(p *NativeProc, op Op) bool
	// OnExit is called exactly once when p's body returns, crashes via
	// OnStep, or panics. Recorders release any held ordering lock here.
	OnExit(p *NativeProc, crashed bool)
}

// stepCrash is the panic sentinel a vetoed step unwinds with. The runBody
// wrapper recovers it and records the crash; any other panic value passes
// through unchanged.
type stepCrash struct{}

// hookedProc is the armed execution context: it forwards the Proc surface
// to the underlying NativeProc and interposes the hook on Step. Registers
// account its steps through the Proc interface (the *NativeProc type tests
// in fast.go deliberately fail on it), so algorithm code runs unchanged.
type hookedProc struct {
	p    *NativeProc
	hook StepHook
}

func (h *hookedProc) ID() int              { return h.p.id }
func (h *hookedProc) Coin(n uint64) uint64 { return h.p.Coin(n) }
func (h *hookedProc) Note(ev Event)        { h.p.Note(ev) }
func (h *hookedProc) Now() uint64          { return h.p.Now() }

// Step consults the hook, then accounts through the underlying proc. A
// veto unwinds the body before the operation is performed or accounted —
// the crashed process's pending step never happened.
func (h *hookedProc) Step(op Op) {
	if !h.hook.OnStep(h.p, op) {
		panic(stepCrash{})
	}
	h.p.Step(op)
}

// spawnFunc returns the per-goroutine body for an execution: body itself
// when no hook is armed — the exact pre-hook frame chain, preserving the
// goroutines' stack-growth profile — or the hooked wrapper. Assigned once,
// so the spawn closure captures it by value.
func spawnFunc(h StepHook, body func(Proc), crashed []bool) func(Proc) {
	if h == nil {
		return body
	}
	return func(p Proc) { runHooked(p.(*NativeProc), h, body, crashed) }
}

// runHooked executes body on p behind a hookedProc, translating
// hook-initiated crashes into a clean early exit recorded in
// crashed[p.ID()]. Disarmed executions never call it — they spawn body
// directly (see RunGroup.Run), keeping the disarmed goroutine's frame
// chain, and therefore its stack-growth profile, exactly as it was before
// hooks existed.
func runHooked(p *NativeProc, h StepHook, body func(Proc), crashed []bool) {
	defer func() {
		v := recover()
		if v == nil {
			h.OnExit(p, false)
			return
		}
		if _, ok := v.(stepCrash); !ok {
			// A genuine body panic: count it as a crash for the hook's
			// bookkeeping (the recorder must release its lock), then let it
			// propagate exactly as it would without a hook.
			h.OnExit(p, true)
			panic(v)
		}
		crashed[p.ID()] = true
		h.OnExit(p, true)
	}()
	body(&hookedProc{p: p, hook: h})
}
