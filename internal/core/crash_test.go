package core

import (
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/tas"
)

// TestBitBatchingCrashSafety: survivors of crashed runs hold unique names
// in [1, n]; crashed processes may hold partial state but never violate
// uniqueness.
func TestBitBatchingCrashSafety(t *testing.T) {
	const n = 16
	for seed := uint64(0); seed < 25; seed++ {
		at := map[int]uint64{
			int(seed % n):       seed / 4,
			int((seed * 7) % n): 2 + seed/5,
		}
		rt := sim.New(seed, sim.NewCrashPlan(sim.NewRandom(seed), at))
		bb := NewBitBatching(rt, n, tas.MakeTwoProc)
		names := make([]uint64, n)
		st := rt.Run(n, func(p shmem.Proc) {
			names[p.ID()] = bb.Rename(p, uint64(p.ID())+1)
		})
		requireCrashed(t, seed, at, st)
		var survivors []uint64
		for i, nm := range names {
			if !st.Crashed[i] {
				survivors = append(survivors, nm)
			}
		}
		if err := CheckUniqueInRange(survivors, n); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

// TestFetchIncCrashSafety: with crashes, completed increments still return
// distinct values below m−1 (a crashed process may consume a value,
// leaving a legal gap), and saturation still only repeats m−1.
func TestFetchIncCrashSafety(t *testing.T) {
	const m, k = 16, 6
	for seed := uint64(0); seed < 25; seed++ {
		at := map[int]uint64{int(seed % k): 15 + seed*2}
		rt := sim.New(seed, sim.NewCrashPlan(sim.NewRandom(seed), at))
		f := NewFetchInc(rt, m, tas.MakeTwoProc)
		vals := make([][]uint64, k)
		st := rt.Run(k, func(p shmem.Proc) {
			for i := 0; i < 3; i++ {
				vals[p.ID()] = append(vals[p.ID()], f.Inc(p))
			}
		})
		requireCrashed(t, seed, at, st)
		seen := map[uint64]bool{}
		for i, vs := range vals {
			if st.Crashed[i] {
				continue
			}
			for _, v := range vs {
				if v >= m {
					t.Fatalf("seed=%d: value %d out of range", seed, v)
				}
				if v < m-1 && seen[v] {
					t.Fatalf("seed=%d: duplicate value %d among survivors", seed, v)
				}
				seen[v] = true
			}
		}
	}
}

// TestCounterCrashSafety: reads by survivors remain monotone-consistent
// with respect to completed and started increments, even as incrementers
// crash mid-operation.
func TestCounterCrashSafety(t *testing.T) {
	const k = 6
	for seed := uint64(0); seed < 20; seed++ {
		at := map[int]uint64{0: 20 + seed*2, 2: 60 + seed}
		rt := sim.New(seed, sim.NewCrashPlan(sim.NewRandom(seed), at))
		c := NewMonotoneCounter(rt, tas.MakeTwoProc)
		var incs, reads []Interval
		st := rt.Run(k, func(p shmem.Proc) {
			for i := 0; i < 3; i++ {
				if p.ID()%2 == 0 {
					s := p.Now()
					c.Inc(p)
					incs = append(incs, Interval{s, p.Now(), 0})
				} else {
					s := p.Now()
					v := c.Read(p)
					reads = append(reads, Interval{s, p.Now(), v})
				}
			}
		})
		requireCrashed(t, seed, at, st)
		// Only completed operations made it into the slices (a crashed
		// process panics out before its append) — exactly the history the
		// checker is defined over. A crashed increment that already
		// renamed counts as "started but incomplete": reads may or may
		// not reflect it. CheckMonotoneCounter's property (3) compares
		// against started increments, which here are the completed ones
		// plus possibly invisible crashed ones — so only property (2) and
		// monotonicity are strict; property (3) may flag a read that saw
		// a crashed increment's name. Verify (1) and (2) directly.
		for i := range reads {
			for j := range reads {
				if reads[j].End < reads[i].Start && reads[j].Val > reads[i].Val {
					t.Fatalf("seed=%d: later read returned less", seed)
				}
			}
			var completedBefore uint64
			for _, inc := range incs {
				if inc.End <= reads[i].Start {
					completedBefore++
				}
			}
			if reads[i].Val < completedBefore {
				t.Fatalf("seed=%d: read %d below %d completed increments", seed, reads[i].Val, completedBefore)
			}
		}
	}
}

// requireCrashed fails unless every process named in the crash plan at
// crashed: a plan that never fires leaves a crash test vacuous.
func requireCrashed(t *testing.T, seed uint64, at map[int]uint64, st *shmem.Stats) {
	t.Helper()
	for p := range at {
		if !st.Crashed[p] {
			t.Fatalf("seed=%d: planned crash of process %d (after %d steps) did not fire", seed, p, at[p])
		}
	}
}
