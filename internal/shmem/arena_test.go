package shmem

import "testing"

// fakeMem is a minimal third-party Mem (no ArenaMem), to exercise the
// NewRegs fallback path.
type fakeMem struct{}

type fakeReg struct{ v uint64 }

func (r *fakeReg) Read(p Proc) uint64     { return r.v }
func (r *fakeReg) Write(p Proc, v uint64) { r.v = v }
func (r *fakeReg) CompareAndSwap(p Proc, old, new uint64) bool {
	if r.v == old {
		r.v = new
		return true
	}
	return false
}
func (r *fakeReg) Restore(v uint64) { r.v = v }

func (fakeMem) NewReg(init uint64) Reg       { return &fakeReg{v: init} }
func (fakeMem) NewCASReg(init uint64) CASReg { return &fakeReg{v: init} }

func testArena(t *testing.T, name string, mem Mem) {
	t.Helper()
	a := NewRegs(mem, 16)
	if a.Len() != 16 {
		t.Fatalf("%s: Len = %d, want 16", name, a.Len())
	}
	run := func(body func(p Proc)) {
		if rt, ok := mem.(Runtime); ok {
			rt.Run(1, body)
		} else {
			body(nil)
		}
	}
	// The first round dirties every register; the second only every third
	// one, so Reset also meets registers that are already clean.
	for round, stride := range []int{1, 3} {
		run(func(p Proc) {
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
		run(func(p Proc) {
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

func TestFallbackArena(t *testing.T) {
	testArena(t, "fallback", fakeMem{})
}

func TestRestoreHelper(t *testing.T) {
	mem := NewNative(1)
	r := mem.NewReg(0)
	Restore(r, 42)
	mem.Run(1, func(p Proc) {
		if got := r.Read(p); got != 42 {
			t.Fatalf("restored value = %d, want 42", got)
		}
	})
}

func TestLazyTableRange(t *testing.T) {
	tab := NewLazyTable[int]()
	want := map[uint64]int{0: 10, 1: 11, 7: 17, 1 << 40: 40}
	for k, v := range want {
		tab.Insert(k, v)
	}
	got := map[uint64]int{}
	tab.Range(func(k uint64, v int) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range saw %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}
	// Early stop: the callback returning false ends the walk.
	n := 0
	tab.Range(func(uint64, int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range after false visited %d entries, want 1", n)
	}
}
