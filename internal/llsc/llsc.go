// Package llsc implements load-linked/store-conditional registers and the
// algorithm transformation used in the paper's Theorem 5: Jayanti's wakeup
// lower bound [16] is stated for the {LL, SC, validate, move, swap}
// instruction set, and the proof compiles any renaming algorithm over
// {read, write, test-and-set} into one over {LL, SC, move} with constant
// overhead. This package makes that compilation executable: CompiledReg
// and CompiledTAS present the repository's ordinary register and
// test-and-set interfaces but perform only LL/SC/move underneath, so the
// whole renaming stack runs unchanged on the lower bound's instruction set
// (see the tests).
//
// Registers are version-stamped words: LL hands out the current word as a
// token; SC succeeds iff the word is still the token (any intervening SC or
// move bumped the version, so the classic ABA failure cannot occur).
package llsc

import (
	"fmt"

	"repro/internal/shmem"
	"repro/internal/tas"
)

const (
	valueBits = 24
	valueMask = 1<<valueBits - 1
)

// Reg is a load-linked/store-conditional register holding values in
// [0, 2^24). The version stamp occupies the remaining 40 bits.
type Reg struct {
	w shmem.CASReg
}

// New allocates an LL/SC register initialized to init.
func New(mem shmem.Mem, init uint64) *Reg {
	if init > valueMask {
		panic(fmt.Sprintf("llsc: initial value %d exceeds %d bits", init, valueBits))
	}
	return &Reg{w: mem.NewCASReg(init)}
}

func pack(version, val uint64) uint64 {
	if val > valueMask {
		panic(fmt.Sprintf("llsc: value %d exceeds %d bits", val, valueBits))
	}
	return version<<valueBits | val
}

// Reset restores the register to init with a zero version stamp (between
// executions only) — the state a freshly allocated register has.
func (r *Reg) Reset(init uint64) {
	r.w.Restore(pack(0, init))
}

// LL load-links the register: it returns the current value and a token for
// a later SC or Validate. One step.
func (r *Reg) LL(p shmem.Proc) (val, token uint64) {
	token = r.w.Read(p)
	return token & valueMask, token
}

// SC store-conditionally writes val: it succeeds iff no SC or Move hit the
// register since the LL that produced token. One step.
func (r *Reg) SC(p shmem.Proc, token, val uint64) bool {
	return r.w.CompareAndSwap(p, token, pack(token>>valueBits+1, val))
}

// Validate reports whether the link from token is still intact. One step.
func (r *Reg) Validate(p shmem.Proc, token uint64) bool {
	return r.w.Read(p) == token
}

// Move atomically replaces the value (Jayanti's move — essentially a write
// that also breaks outstanding links). Implemented as a CAS retry loop;
// each retry means a concurrent SC or Move succeeded, so the loop is
// lock-free.
func (r *Reg) Move(p shmem.Proc, val uint64) {
	for {
		cur := r.w.Read(p)
		if r.w.CompareAndSwap(p, cur, pack(cur>>valueBits+1, val)) {
			return
		}
	}
}

// Swap atomically replaces the value and returns the previous one (the
// last member of Jayanti's {LL, SC, validate, move, swap} set). Lock-free
// CAS retry, like Move.
func (r *Reg) Swap(p shmem.Proc, val uint64) uint64 {
	for {
		cur := r.w.Read(p)
		if r.w.CompareAndSwap(p, cur, pack(cur>>valueBits+1, val)) {
			return cur & valueMask
		}
	}
}

// CompiledReg is the transformation's register adapter: Read becomes LL,
// Write becomes Move — the constant-overhead compilation step of the
// Theorem 5 proof.
type CompiledReg struct {
	r *Reg
}

var _ shmem.Reg = (*CompiledReg)(nil)

// NewCompiledReg allocates a register whose operations compile to LL/move.
func NewCompiledReg(mem shmem.Mem, init uint64) *CompiledReg {
	return &CompiledReg{r: New(mem, init)}
}

// Restore resets the compiled register between executions (Reg.Restore),
// so compiled registers compose with object Reset methods.
func (c *CompiledReg) Restore(v uint64) {
	c.r.Reset(v)
}

// Read performs LL and discards the link.
func (c *CompiledReg) Read(p shmem.Proc) uint64 {
	v, _ := c.r.LL(p)
	return v
}

// Write performs move.
func (c *CompiledReg) Write(p shmem.Proc, v uint64) {
	c.r.Move(p, v)
}

// CompiledTAS is the transformation's test-and-set adapter: a test-and-set
// becomes LL followed by SC(1), as in the proof ("any test-and-set
// operation is replaced with a LL operation followed by a SC operation
// with value 1 on the same register").
type CompiledTAS struct {
	r *Reg
}

var (
	_ tas.TAS   = (*CompiledTAS)(nil)
	_ tas.Sided = (*CompiledTAS)(nil)
)

// NewCompiledTAS allocates a TAS compiled to LL/SC.
func NewCompiledTAS(mem shmem.Mem) *CompiledTAS {
	return &CompiledTAS{r: New(mem, 0)}
}

// Reset restores the compiled TAS to its unwon state (between executions
// only).
func (c *CompiledTAS) Reset() {
	c.r.Reset(0)
}

// TestAndSet returns true for exactly the first linearized caller.
func (c *CompiledTAS) TestAndSet(p shmem.Proc) bool {
	p.Note(shmem.EvTASEnter)
	v, token := c.r.LL(p)
	if v != 0 {
		return false
	}
	if c.r.SC(p, token, 1) {
		p.Note(shmem.EvTASWin)
		return true
	}
	return false
}

// TestAndSetSide ignores the side (an LL/SC TAS handles any number of
// contenders), making the compiled object a drop-in comparator.
func (c *CompiledTAS) TestAndSetSide(p shmem.Proc, _ int) bool {
	p.Note(shmem.EvTAS2Enter)
	v, token := c.r.LL(p)
	if v != 0 {
		return false
	}
	return c.r.SC(p, token, 1)
}

// MakeCompiled is a tas.SidedMaker building LL/SC-compiled test-and-set
// objects: plugging it into any algorithm in this repository yields the
// algorithm A′ of the Theorem 5 proof.
func MakeCompiled(mem shmem.Mem) tas.Sided {
	return NewCompiledTAS(mem)
}
