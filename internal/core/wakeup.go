package core

import "repro/internal/shmem"

// Wakeup solves the k-process wakeup problem of Jayanti [16] from any
// adaptive strong renaming object — the reduction inside the proof of the
// paper's Theorem 5 lower bound, made executable.
//
// The wakeup problem: every process returns 0 or 1; in every run where all
// processes terminate at least one returns 1; and in every run where some
// process returns 1, every process takes at least one step before any
// process returns 1.
//
// Reduction: with the participant count k fixed and known, a process
// returns 1 iff the renaming object hands it name k. Strong adaptivity
// does the rest: name k exists iff all k processes have taken steps, and
// whoever holds it knows the other k−1 are awake. Because wakeup costs
// Ω(log k) (Jayanti), adaptive strong renaming must too — which is why the
// paper's O(log k) algorithm is optimal.
type Wakeup struct {
	k   int
	ren Renamer
	// announce is a scratch register each process touches first, giving
	// the tests a measurable "first step" timestamp; it is not needed for
	// correctness.
	announce shmem.Reg
}

// NewWakeup builds a wakeup instance for exactly k participating processes
// over the given renaming object (which must be strong and adaptive).
func NewWakeup(mem shmem.Mem, k int, ren Renamer) *Wakeup {
	if k < 1 {
		panic("core: Wakeup needs k >= 1")
	}
	return &Wakeup{k: k, ren: ren, announce: mem.NewReg(0)}
}

// Reset restores the instance and its renamer (every renamer is
// shmem.Resettable) to the unentered state. Between executions only.
func (w *Wakeup) Reset() {
	w.announce.Restore(0)
	w.ren.(shmem.Resettable).Reset()
}

// Wake runs the protocol and returns 1 for at least one of the k
// processes, 0 for the rest. uid must be a unique nonzero id.
func (w *Wakeup) Wake(p shmem.Proc, uid uint64) int {
	w.announce.Write(p, uid)
	if w.ren.Rename(p, uid) == uint64(w.k) {
		return 1
	}
	return 0
}
