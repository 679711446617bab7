package shmem_test

import (
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
)

// TestFastRegFallback covers FastReg's interface path: the simulator's
// registers, plain and arena-backed, expose no word and keep their exact
// semantics behind the handle, including step accounting through the Proc
// they are handed and Restore between executions.
func TestFastRegFallback(t *testing.T) {
	rt := sim.New(1, sim.NewRoundRobin())
	f := shmem.Fast(rt.NewCASReg(5))
	a := rt.NewRegs(2)
	g := shmem.FastAt(a, 1)
	if f.Word() != nil || g.Word() != nil {
		t.Fatal("a simulator register exposes a word")
	}
	if w, _ := shmem.ArenaWords(a); w != nil {
		t.Fatal("a simulator arena exposes words")
	}
	st := rt.Run(1, func(p shmem.Proc) {
		if got := f.Read(p); got != 5 {
			t.Errorf("Read = %d, want 5", got)
		}
		f.Write(p, 7)
		if f.CompareAndSwap(p, 6, 8) {
			t.Error("CAS with wrong old value succeeded")
		}
		if !f.CompareAndSwap(p, 7, 8) {
			t.Error("CAS with right old value failed")
		}
		g.Write(p, 3)
		if got := a.Reg(1).Read(p); got != 3 {
			t.Errorf("arena register reads %d after a FastAt write of 3", got)
		}
	})
	if got, want := st.PerProc[0].Steps(), uint64(6); got != want {
		t.Errorf("%d steps accounted through the interface path, want %d", got, want)
	}
	f.Restore(1)
	g.Restore(0)
	rt.Reset(1, sim.NewRoundRobin())
	rt.Run(1, func(p shmem.Proc) {
		if got := f.Read(p); got != 1 {
			t.Errorf("Read after Restore = %d, want 1", got)
		}
		if got := g.Read(p); got != 0 {
			t.Errorf("arena register after Restore = %d, want 0", got)
		}
	})
}
