package shmem

import (
	"sync/atomic"
	"unsafe"
)

// This file is the devirtualized native hot path. Algorithm code is written
// against the Reg/CASReg/Proc interfaces so it runs unchanged on both
// runtimes, but on the native runtime every register step then pays two
// dynamic dispatches: reg.Read → itab call, p.Step → itab call. Neither can
// be devirtualized by the compiler (the concrete types cross package
// boundaries through interface-typed fields), and the renaming hot loops
// perform nothing *but* register steps.
//
// FastReg removes both dispatches for the monomorphic case: a handle that,
// when the register belongs to the native runtime (a nativeReg, padded or
// not, individually allocated or RegArena-backed), holds a direct pointer
// to its word. Each native step is then one call: the FastReg method
// itself is too large to inline (its interface path alone exceeds the
// budget), but the compiler inlines (*NativeProc).Step into it, so the
// step costs the call, a type test, a counter increment and the memory
// operation, with at most one locked instruction. A proc behind a step
// hook (see hook.go) fails the type test and accounts through its
// interface. Writes and restores go through storeWord, which skips the
// locked store when the word already holds the value. The simulator's
// registers take the interface path, bit-identical to calling them
// directly — the reuse-equivalence tests pin this down. LogWord, in every
// native step, compiles to nothing outside the wordlog build tag.
//
// tas, splitter, maxreg and core store FastReg in place of Reg/CASReg on
// their hot-path fields; construction wraps once via Fast at instantiation
// time, outside the step-counted model.
//
// Walks that take many steps per operation (the max registers) can drop
// the per-step call as well: DirectProc tests the proc once per operation,
// and for an unhooked native proc the walk then counts each step with the
// inlined Step and operates on the words that Word and ArenaWords expose,
// with no call per step.

// FastReg is a devirtualized register handle. The zero value is unusable
// (like a nil Reg); build one with Fast.
type FastReg struct {
	// w is the register's atomic word when it belongs to the native
	// runtime; nil otherwise.
	w *atomic.Uint64
	// slow is the interface path for the simulator's registers.
	slow Reg
}

// Fast wraps a register in a devirtualized handle. Native registers (both
// the padded and unpadded layout, including arena-backed ones) take the
// monomorphic fast path; the simulator's keep their interface dispatch and
// exact semantics.
func Fast(r Reg) FastReg {
	if t, ok := r.(*nativeReg); ok {
		return FastReg{w: &t.v}
	}
	return FastReg{slow: r}
}

// FastAt is Fast(a.Reg(i)), indexing the native arenas directly.
func FastAt(a RegArena, i int) FastReg {
	switch t := a.(type) {
	case nativeArena:
		return FastReg{w: &t[i].v}
	case nativePaddedArena:
		return FastReg{w: &t[i].v}
	}
	return Fast(a.Reg(i))
}

// Word returns the register's atomic word when it belongs to the native
// runtime, and nil otherwise.
func (r FastReg) Word() *atomic.Uint64 { return r.w }

// ArenaWords returns the atomic words of a native arena's registers:
// register i's word is words[i<<shift]. An unpadded arena is its words
// (shift 0); a padded arena's registers are eight words apart (shift 3),
// and the words between them are padding that no step touches. It returns
// nil for an empty arena or one from the simulator.
func ArenaWords(a RegArena) (words []atomic.Uint64, shift uint) {
	switch t := a.(type) {
	case nativeArena:
		if len(t) > 0 {
			return unsafe.Slice(&t[0].v, len(t)), 0
		}
	case nativePaddedArena:
		if len(t) > 0 {
			return unsafe.Slice(&t[0].v, len(t)<<paddedShift), paddedShift
		}
	}
	return nil, 0
}

// paddedShift is log2 of a padded register's size in 8-byte words. The two
// declarations below compile only while that size is exact.
const paddedShift = 3

var (
	_ [unsafe.Sizeof(paddedReg{}) - 8<<paddedShift]struct{}
	_ [8<<paddedShift - unsafe.Sizeof(paddedReg{})]struct{}
)

// DirectProc returns p as a *NativeProc when a step of p is only a count
// on the proc: an unhooked native proc. It returns nil for every other
// proc, whose steps must go through its Proc interface: the simulator's,
// and a hooked one (hookedProc fails the type test). Objects from one
// runtime's Mem are used only by that runtime's procs (see Mem), so a
// direct proc meets only native registers: a walk that tests its proc once
// per operation can then count each step with Step and perform it on the
// register's word directly. Every step must be counted by the time the
// operation returns.
func DirectProc(p Proc) *NativeProc {
	np, _ := p.(*NativeProc)
	return np
}

// Read performs one read step.
func (r FastReg) Read(p Proc) uint64 {
	if r.w == nil {
		return r.slow.Read(p)
	}
	if np, ok := p.(*NativeProc); ok {
		np.Step(OpRead)
	} else {
		p.Step(OpRead)
	}
	return LogWord(p, r.w, OpRead, r.w.Load())
}

// Write performs one write step.
func (r FastReg) Write(p Proc, v uint64) {
	if r.w == nil {
		r.slow.Write(p, v)
		return
	}
	if np, ok := p.(*NativeProc); ok {
		np.Step(OpWrite)
	} else {
		p.Step(OpWrite)
	}
	storeWord(r.w, v)
	LogWord(p, r.w, OpWrite, v)
}

// CompareAndSwap performs one unit-cost CAS step. The underlying register
// must support it (both runtimes' registers do).
func (r FastReg) CompareAndSwap(p Proc, old, new uint64) bool {
	if r.w == nil {
		return r.slow.(CASReg).CompareAndSwap(p, old, new)
	}
	if np, ok := p.(*NativeProc); ok {
		np.Step(OpCAS)
	} else {
		p.Step(OpCAS)
	}
	LogWord(p, r.w, OpCAS, new)
	return r.w.CompareAndSwap(old, new)
}

// Restore resets the register between executions (no step accounting).
// A native register that already holds v is only read (storeWord).
func (r FastReg) Restore(v uint64) {
	if r.w != nil {
		storeWord(r.w, v)
		return
	}
	r.slow.Restore(v)
}

// stepFast accounts one step, devirtualized for native procs. It does not
// inline, so the FastReg methods repeat its body rather than call it; the
// Cells methods, one step each, call it.
func stepFast(p Proc, op Op) {
	if np, ok := p.(*NativeProc); ok {
		np.Step(op)
		return
	}
	p.Step(op)
}

// storeWord is the memory half of a native write step: it stores v only if
// the word holds something else. A plain Store is a locked exchange on
// amd64, and max registers mostly rewrite switch and spine bits that are
// already 1. Skipping it keeps the write linearizable: a write of the held
// value takes effect at the load that saw that value. Under trace
// recording the load and the store both happen inside the step's recorded
// window (internal/exec holds its ordering lock until the process's next
// step), so replay sees the same order. Restores and arena resets use it
// too: between executions most registers of a reused graph already hold
// their initial value.
func storeWord(w *atomic.Uint64, v uint64) {
	if w.Load() != v {
		w.Store(v)
	}
}

// NoteFast is p.Note, devirtualized for native procs. Hot loops that note an
// accounting event per object traversal (comparators, splitters,
// test-and-set entries) use it to skip the itab call.
func NoteFast(p Proc, ev Event) {
	if np, ok := p.(*NativeProc); ok {
		np.Note(ev)
		return
	}
	p.Note(ev)
}

// CoinFast is p.Coin, devirtualized for native procs.
func CoinFast(p Proc, n uint64) uint64 {
	if np, ok := p.(*NativeProc); ok {
		return np.Coin(n)
	}
	return p.Coin(n)
}
