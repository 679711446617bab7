package shmem

import "testing"

func testArena(t *testing.T, name string, rt Runtime) {
	t.Helper()
	a := rt.NewRegs(16)
	if a.Len() != 16 {
		t.Fatalf("%s: Len = %d, want 16", name, a.Len())
	}
	// The first round dirties every register; the second only every third
	// one, so Reset also meets registers that are already clean.
	for round, stride := range []int{1, 3} {
		rt.Run(1, func(p Proc) {
			for i := 0; i < a.Len(); i += stride {
				if got := a.Reg(i).Read(p); got != 0 {
					t.Errorf("%s round %d: reg %d initial value %d, want 0", name, round, i, got)
				}
				a.Reg(i).Write(p, uint64(i)+1)
				if !a.CASReg(i).CompareAndSwap(p, uint64(i)+1, uint64(i)+2) {
					t.Errorf("%s round %d: CAS on reg %d failed", name, round, i)
				}
			}
		})
		a.Reset()
		rt.Run(1, func(p Proc) {
			for i := 0; i < a.Len(); i++ {
				if got := a.Reg(i).Read(p); got != 0 {
					t.Errorf("%s round %d: reg %d = %d after Reset, want 0", name, round, i, got)
				}
			}
		})
	}
}

func TestNativeArena(t *testing.T) {
	testArena(t, "padded", NewNative(1, WithRegisterPadding(true)))
	testArena(t, "unpadded", NewNative(1, WithRegisterPadding(false)))
}
