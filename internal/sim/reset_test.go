package sim

import (
	"reflect"
	"testing"

	"repro/internal/shmem"
)

// contendedBody is a small workload mixing reads, writes, CAS retries and
// coin flips, so schedules and step counts are sensitive to any drift.
func contendedBody(mem shmem.Mem) func(p shmem.Proc) {
	head := mem.NewCASReg(0)
	slots := mem.NewRegs(8)
	return func(p shmem.Proc) {
		for i := 0; i < 6; i++ {
			s := slots.Reg(int(p.Coin(8)))
			s.Write(p, uint64(p.ID())+1)
			for {
				h := head.Read(p)
				if head.CompareAndSwap(p, h, h+s.Read(p)) {
					break
				}
			}
		}
	}
}

// TestResetRunsBitIdentical pins the multi-execution contract: running on a
// Reset runtime is bit-for-bit the run a fresh runtime would produce for
// the same (seed, adversary) — provided shared state was restored.
func TestResetRunsBitIdentical(t *testing.T) {
	const k = 5
	for seed := uint64(0); seed < 8; seed++ {
		fresh := New(seed, NewRandom(seed))
		want := fresh.Run(k, contendedBody(fresh))

		reused := New(seed+100, NewRandom(seed+100))
		arena := reused.NewRegs(9) // head + 8 slots, restored between runs
		head, slots := arena.CASReg(0), arena
		body := func(p shmem.Proc) {
			for i := 0; i < 6; i++ {
				s := slots.Reg(1 + int(p.Coin(8)))
				s.Write(p, uint64(p.ID())+1)
				for {
					h := head.Read(p)
					if head.CompareAndSwap(p, h, h+s.Read(p)) {
						break
					}
				}
			}
		}
		reused.Run(k, body)

		arena.Reset()
		reused.Reset(seed, NewRandom(seed))
		got := reused.Run(k, body)

		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: reset run diverged from fresh run\nfresh: %+v\nreset: %+v", seed, want, got)
		}
	}
}

// TestResetRetainsStepCapAndRegisters checks Reset keeps the configured
// step cap and that registers allocated before Reset remain usable.
func TestResetRetainsStepCapAndRegisters(t *testing.T) {
	rt := New(1, NewRoundRobin(), WithStepCap(10))
	r := rt.NewReg(0)
	st := rt.Run(2, func(p shmem.Proc) {
		for i := 0; i < 20; i++ {
			r.Write(p, uint64(i))
		}
	})
	if !st.StepCapHit {
		t.Fatal("expected step cap hit before reset")
	}
	rt.Reset(2, NewRoundRobin())
	r.Restore(0)
	st = rt.Run(1, func(p shmem.Proc) {
		r.Write(p, 7)
	})
	if st.StepCapHit {
		t.Fatal("unexpected step cap hit after reset")
	}
	if got := st.TotalSteps(); got != 1 {
		t.Fatalf("post-reset run took %d steps, want 1", got)
	}
}

// TestRunTwiceWithoutResetPanics pins the guard against silent state reuse.
func TestRunTwiceWithoutResetPanics(t *testing.T) {
	rt := New(1, NewSequential())
	rt.Run(1, func(p shmem.Proc) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Run without Reset did not panic")
		}
	}()
	rt.Run(1, func(p shmem.Proc) {})
}
