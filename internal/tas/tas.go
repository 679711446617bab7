// Package tas implements the test-and-set hierarchy the paper builds on:
//
//   - Unit: a hardware test-and-set (one CAS), unit cost. The paper states
//     its upper bounds "also counting test-and-set operations as having unit
//     cost" and notes the whole construction becomes deterministic when
//     two-process TAS is available in hardware (Section 1, Discussion).
//   - TwoProc: a randomized register-based two-process test-and-set with the
//     cost profile of Tromp–Vitányi [20]: expected O(1) steps and O(log n)
//     steps with high probability, against a strong adaptive adversary.
//   - RatRace: an adaptive n-process test-and-set in the style of Alistarh
//     et al. [12]: a randomized splitter tree feeding a tournament of
//     two-process TAS objects, with per-process step complexity
//     polylogarithmic in the contention k.
//
// See the TwoProc comment below for how it relates to the original
// Tromp–Vitányi protocol.
package tas

import (
	"sync"

	"repro/internal/shmem"
)

// TAS is a one-shot multi-process test-and-set object. TestAndSet returns
// true for exactly one caller (the winner); every other caller, in every
// execution, returns false only after the object has been entered by some
// other contender.
type TAS interface {
	TestAndSet(p shmem.Proc) bool
}

// Sided is a one-shot two-contender test-and-set where each side (0 or 1)
// is used by at most one process. Renaming-network comparators and
// tournament-tree edges satisfy this statically.
type Sided interface {
	TestAndSetSide(p shmem.Proc, side int) bool
}

// Unit is the hardware test-and-set: a single compare-and-swap on one word,
// counted as one step. It supports any number of contenders and also
// implements Sided (the side is irrelevant). The word is held through the
// devirtualized register handle: on the native runtime a TestAndSet is an
// inlined atomic CAS with no interface dispatch.
type Unit struct {
	w shmem.FastReg
}

var (
	_ TAS   = (*Unit)(nil)
	_ Sided = (*Unit)(nil)
)

// NewUnit allocates a hardware TAS from mem.
func NewUnit(mem shmem.Mem) *Unit {
	return &Unit{w: shmem.Fast(mem.NewCASReg(0))}
}

// TestAndSet wins iff the caller's CAS is the first.
func (t *Unit) TestAndSet(p shmem.Proc) bool {
	shmem.NoteFast(p, shmem.EvTASEnter)
	if t.w.CompareAndSwap(p, 0, 1) {
		shmem.NoteFast(p, shmem.EvTASWin)
		return true
	}
	return false
}

// TestAndSetSide wins iff the caller's CAS is the first. Used as an
// internal two-process object, it is accounted as such.
func (t *Unit) TestAndSetSide(p shmem.Proc, _ int) bool {
	shmem.NoteFast(p, shmem.EvTAS2Enter)
	return t.w.CompareAndSwap(p, 0, 1)
}

// Reset restores the object to its unwon state (between executions only).
func (t *Unit) Reset() {
	t.w.Restore(0)
}

// TwoProc is a randomized two-process test-and-set built from three shared
// words: one single-writer register per side plus one arbitration word.
//
// Protocol: the two sides run coin-flipping rounds. In each round a side
// writes (round, coin) to its register — the coin flip is bundled with the
// write, one step in the paper's accounting — and reads the opponent's
// register. A side claims victory through a single CAS on the arbitration
// word when it observes the opponent absent, behind, or coin-dominated; it
// concedes without claiming when it observes the opponent coin-dominant in
// the same round. Ties advance the round; observing the opponent ahead
// jumps to the opponent's round.
//
// Safety invariants (each checked by tests, including exhaustive bounded
// interleavings):
//
//   - at most one winner, unconditionally: winning requires the unique
//     successful CAS on the arbitration word;
//   - a process returns false only after observing evidence that the
//     opponent entered the object (a nonzero opponent register or a lost
//     CAS) — the invariant renaming networks need for the ghost-process
//     simulation argument of Theorem 1;
//   - a process running alone wins in 3 steps;
//   - if both contenders run to completion, exactly one wins.
//
// Liveness: every confrontation round is decisive with probability ≥ 1/2
// independently of the schedule, so the protocol finishes in expected O(1)
// rounds and O(log n) rounds with probability 1 − 1/n^c — the
// Tromp–Vitányi cost profile quoted in Section 2 of the paper.
type TwoProc struct {
	s [2]shmem.FastReg
	w shmem.FastReg
}

var _ Sided = (*TwoProc)(nil)

// NewTwoProc allocates a two-process TAS from mem.
func NewTwoProc(mem shmem.Mem) *TwoProc {
	t := &TwoProc{}
	t.init(mem)
	return t
}

func (t *TwoProc) init(mem shmem.Mem) {
	t.s = [2]shmem.FastReg{shmem.Fast(mem.NewReg(0)), shmem.Fast(mem.NewReg(0))}
	t.w = shmem.Fast(mem.NewCASReg(0))
}

// Reset restores the object to its unentered state (between executions
// only).
func (t *TwoProc) Reset() {
	t.s[0].Restore(0)
	t.s[1].Restore(0)
	t.w.Restore(0)
}

// poolChunk is the number of TwoProc objects (three registers each) a Pool
// allocates per chunk.
const poolChunk = 32

// Pool batch-allocates TwoProc objects and is reusable across executions:
// Reset restores every object it ever handed out, so an instantiated
// object graph whose comparators came from the pool serves the next
// execution without reallocating — with bit-identical step counts per
// (seed, adversary), since all shared words are zero again (the pooled
// reuse test pins this).
//
// Shells and registers come in chunks from bulk arenas. Make is safe for
// concurrent use: lazily built object graphs call it from concurrent
// processes on the native runtime, so a mutex guards the chunk cursor
// (construction is off the step-counted hot path).
type Pool struct {
	mem    shmem.Mem
	mu     sync.Mutex
	shells []TwoProc
	chunk  shmem.RegArena
	off    int
	arenas []shmem.RegArena
}

// NewPool returns an empty pool over mem.
func NewPool(mem shmem.Mem) *Pool {
	return &Pool{mem: mem}
}

// Make is a SidedMaker drawing from the pool. The mem argument must be the
// pool's own runtime (the SidedMaker signature carries it for makers
// without captured state).
func (pl *Pool) Make(shmem.Mem) Sided {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.off == poolChunk || pl.chunk == nil {
		pl.shells = make([]TwoProc, poolChunk)
		pl.chunk = shmem.NewRegs(pl.mem, 3*poolChunk)
		pl.arenas = append(pl.arenas, pl.chunk)
		pl.off = 0
	}
	t := &pl.shells[pl.off]
	t.s = [2]shmem.FastReg{shmem.FastAt(pl.chunk, 3*pl.off), shmem.FastAt(pl.chunk, 3*pl.off+1)}
	t.w = shmem.FastAt(pl.chunk, 3*pl.off+2)
	pl.off++
	return t
}

// Reset restores every object the pool has handed out to its unentered
// state, one sweep per arena. Must only run between executions.
func (pl *Pool) Reset() {
	for _, a := range pl.arenas {
		a.Reset()
	}
}

// MakeTwoProcPool returns a register-TAS maker that batch-allocates
// TwoProc objects from a fresh Pool. The objects built are identical to
// MakeTwoProc's, so simulated executions are unchanged. The anonymous
// pool's Reset is unreachable: object graphs reset their comparators
// through their own tables. Callers that want pooled reuse across
// executions hold the Pool themselves (NewPool) and call its Reset.
func MakeTwoProcPool(mem shmem.Mem) SidedMaker {
	return NewPool(mem).Make
}

func packRound(round, coin uint64) uint64 { return round<<1 | coin }

func unpackRound(v uint64) (round, coin uint64) { return v >> 1, v & 1 }

// TestAndSetSide runs the protocol for the given side (0 or 1).
func (t *TwoProc) TestAndSetSide(p shmem.Proc, side int) bool {
	if side != 0 && side != 1 {
		panic("tas: TwoProc side must be 0 or 1")
	}
	shmem.NoteFast(p, shmem.EvTAS2Enter)
	round := uint64(1)
	coin := shmem.CoinFast(p, 2)
	for {
		t.s[side].Write(p, packRound(round, coin))
		opp := t.s[1-side].Read(p)
		if opp == 0 {
			return t.claim(p, side) // opponent absent
		}
		oppRound, oppCoin := unpackRound(opp)
		switch {
		case oppRound < round:
			return t.claim(p, side) // opponent behind
		case oppRound > round:
			round = oppRound // catch up and re-flip
			coin = shmem.CoinFast(p, 2)
		case oppCoin == coin:
			round++ // tie: next round
			coin = shmem.CoinFast(p, 2)
		case coin == 1:
			return t.claim(p, side) // coin-dominant
		default:
			// Coin-dominated in the same round: the opponent exists and —
			// if it completes — claims on every one of its code paths, so
			// conceding here never leaves a completed pair winnerless.
			return false
		}
	}
}

// claim performs the unique arbitration CAS.
func (t *TwoProc) claim(p shmem.Proc, side int) bool {
	return t.w.CompareAndSwap(p, 0, uint64(side)+1)
}

// SidedMaker builds the two-process TAS flavor a composite algorithm uses
// for its internal comparators and tournament edges.
type SidedMaker func(mem shmem.Mem) Sided

// MakeTwoProc allocates randomized register-based two-process TAS objects.
func MakeTwoProc(mem shmem.Mem) Sided { return NewTwoProc(mem) }

// MakeUnit allocates hardware (single-CAS) TAS objects; with it the
// renaming network and the counting objects become deterministic, matching
// the paper's hardware remark.
func MakeUnit(mem shmem.Mem) Sided { return NewUnit(mem) }
