package core

import (
	"math/bits"
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/sortnet"
	"repro/internal/splitter"
	"repro/internal/tas"
)

func adversaries(seed uint64) map[string]sim.Adversary {
	return map[string]sim.Adversary{
		"roundrobin": sim.NewRoundRobin(),
		"random":     sim.NewRandom(seed),
		"sequential": sim.NewSequential(),
		"anticoin":   sim.NewAntiCoin(seed),
		"laggard":    sim.NewLaggard(0),
		"oscillator": sim.NewOscillator(int(seed%7) + 2),
	}
}

func TestBatchLayout(t *testing.T) {
	for _, n := range []int{4, 8, 16, 100, 256, 1000, 1024, 4096} {
		batches := BatchLayout(n)
		// Contiguous cover of [0, n).
		at := 0
		for i, b := range batches {
			if b.Lo != at || b.Hi <= b.Lo {
				t.Fatalf("n=%d: batch %d = %+v not contiguous at %d", n, i, b, at)
			}
			at = b.Hi
		}
		if at != n {
			t.Fatalf("n=%d: batches end at %d", n, at)
		}
		// First batch is about half; each of the leading batches halves.
		if n >= 16 {
			if b := batches[0]; b.Len() != n/2 {
				t.Errorf("n=%d: first batch length %d, want %d", n, b.Len(), n/2)
			}
			for i := 1; i+1 < len(batches); i++ {
				prev, cur := batches[i-1].Len(), batches[i].Len()
				if cur < prev/2-1 || cur > prev/2+1 {
					t.Errorf("n=%d: batch %d length %d does not halve %d", n, i, cur, prev)
				}
			}
		}
		// Final batch is Θ(log n): between lg n and about 2·lg n (+slack
		// for rounding on non-powers of two).
		lg := bits.Len(uint(n)) - 1
		final := batches[len(batches)-1].Len()
		if final < lg || final > 4*lg+4 {
			t.Errorf("n=%d: final batch length %d, want Θ(log n) ≈ [%d, %d]", n, final, lg, 4*lg+4)
		}
	}
}

func TestBitBatchingFullContention(t *testing.T) {
	const n = 32
	for name := range adversaries(0) {
		for seed := uint64(0); seed < 10; seed++ {
			adv := adversaries(seed)[name]
			rt := sim.New(seed, adv)
			bb := NewBitBatching(rt, n, tas.MakeTwoProc)
			names := make([]uint64, n)
			rt.Run(n, func(p shmem.Proc) {
				names[p.ID()] = bb.Rename(p, uint64(p.ID())+1)
			})
			if err := CheckUniqueTight(names); err != nil {
				t.Fatalf("adv=%s seed=%d: %v", name, seed, err)
			}
		}
	}
}

func TestBitBatchingPartialContention(t *testing.T) {
	// k < n participants: names unique within [1, n] (BitBatching is
	// strong but non-adaptive).
	const n, k = 64, 10
	for seed := uint64(0); seed < 20; seed++ {
		rt := sim.New(seed, sim.NewRandom(seed))
		bb := NewBitBatching(rt, n, tas.MakeTwoProc)
		names := make([]uint64, k)
		rt.Run(k, func(p shmem.Proc) {
			names[p.ID()] = bb.Rename(p, uint64(p.ID())+1)
		})
		if err := CheckUniqueInRange(names, n); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestBitBatchingStageOneWHP(t *testing.T) {
	// Lemma 1: every process should finish within stage 1, i.e. after
	// O(log² n) top-level TAS probes. With n=64 and 3·lg n probes per
	// batch over ≤ lg n batches, the stage-1 budget is ~3·36+12 = 120;
	// seeing more would mean some process fell into stage 2.
	const n = 64
	lg := log2ceil(n)
	budget := uint64(3*lg*lg + 2*lg + 4)
	for seed := uint64(0); seed < 10; seed++ {
		rt := sim.New(seed, sim.NewRandom(seed))
		bb := NewBitBatching(rt, n, tas.MakeTwoProc)
		st := rt.Run(n, func(p shmem.Proc) {
			bb.Rename(p, uint64(p.ID())+1)
		})
		if got := st.MaxEvent(shmem.EvTASEnter); got > budget {
			t.Errorf("seed=%d: a process made %d TAS probes, stage-1 budget %d", seed, got, budget)
		}
	}
}

func TestBitBatchingSmall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		rt := sim.New(uint64(n), sim.NewRoundRobin())
		bb := NewBitBatching(rt, n, tas.MakeTwoProc)
		names := make([]uint64, n)
		rt.Run(n, func(p shmem.Proc) {
			names[p.ID()] = bb.Rename(p, uint64(p.ID())+1)
		})
		if err := CheckUniqueTight(names); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRenamingNetworkTightness(t *testing.T) {
	// Theorem 1 over an explicit Batcher network: any k participants with
	// distinct initial names in [1, M] rename to exactly [1, k].
	const M = 16
	net := sortnet.OddEvenMergeNet(M)
	for name := range adversaries(0) {
		for seed := uint64(0); seed < 15; seed++ {
			for _, k := range []int{1, 2, 5, M} {
				adv := adversaries(seed)[name]
				rt := sim.New(seed, adv)
				rn := NewRenamingNetwork(rt, net, tas.MakeTwoProc)
				// Scatter initial names across the namespace: process i
				// takes initial name i·M/k + 1.
				names := make([]uint64, k)
				rt.Run(k, func(p shmem.Proc) {
					initial := uint64(p.ID()*M/k) + 1
					names[p.ID()] = rn.Rename(p, initial)
				})
				if err := CheckUniqueTight(names); err != nil {
					t.Fatalf("adv=%s seed=%d k=%d: %v", name, seed, k, err)
				}
			}
		}
	}
}

// TestRenamingNetworkOverEveryGenerator checks Theorem 1's generality: ANY
// sorting network yields a strong adaptive renaming network — insertion,
// odd-even transposition, Batcher, and the balanced network alike.
func TestRenamingNetworkOverEveryGenerator(t *testing.T) {
	const m = 12
	nets := map[string]*sortnet.Network{
		"insertion":     sortnet.Insertion(m),
		"transposition": sortnet.OddEvenTransposition(m),
		"batcher":       sortnet.OddEvenMergeNet(m),
		"balanced":      sortnet.BalancedNet(m),
	}
	for name, net := range nets {
		for seed := uint64(0); seed < 8; seed++ {
			for _, k := range []int{3, m} {
				rt := sim.New(seed, sim.NewRandom(seed))
				rn := NewRenamingNetwork(rt, net, tas.MakeTwoProc)
				names := make([]uint64, k)
				rt.Run(k, func(p shmem.Proc) {
					names[p.ID()] = rn.Rename(p, uint64(p.ID()*m/k)+1)
				})
				if err := CheckUniqueTight(names); err != nil {
					t.Fatalf("net=%s seed=%d k=%d: %v", name, seed, k, err)
				}
			}
		}
	}
}

// TestRenamingNetworkScriptedSchedules is a bounded model check of the
// network construction on a tiny instance: all 2^10 two-process schedule
// prefixes over a width-4 network.
func TestRenamingNetworkScriptedSchedules(t *testing.T) {
	net := sortnet.OddEvenMergeNet(4)
	const prefix = 10
	for mask := 0; mask < 1<<prefix; mask++ {
		bits := make([]int, prefix)
		for i := range bits {
			bits[i] = mask >> i & 1
		}
		for seed := uint64(0); seed < 4; seed++ {
			rt := sim.New(seed, sim.NewReplay(bits), sim.WithStepCap(10000))
			rn := NewRenamingNetwork(rt, net, tas.MakeTwoProc)
			names := make([]uint64, 2)
			st := rt.Run(2, func(p shmem.Proc) {
				names[p.ID()] = rn.Rename(p, uint64(p.ID()*2)+1) // wires 1 and 3
			})
			if st.StepCapHit {
				t.Fatalf("mask=%x: did not terminate", mask)
			}
			if err := CheckUniqueTight(names); err != nil {
				t.Fatalf("mask=%x seed=%d: %v", mask, seed, err)
			}
		}
	}
}

func TestRenamingNetworkWithUnitTAS(t *testing.T) {
	// The deterministic-hardware variant (Discussion, Section 1).
	const M = 16
	net := sortnet.OddEvenMergeNet(M)
	for seed := uint64(0); seed < 10; seed++ {
		rt := sim.New(seed, sim.NewRandom(seed))
		rn := NewRenamingNetwork(rt, net, tas.MakeUnit)
		const k = 7
		names := make([]uint64, k)
		rt.Run(k, func(p shmem.Proc) {
			names[p.ID()] = rn.Rename(p, uint64(p.ID()*2)+1)
		})
		if err := CheckUniqueTight(names); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestRenamingNetworkDepthBoundsTASCount(t *testing.T) {
	const M = 32
	net := sortnet.OddEvenMergeNet(M)
	rt := sim.New(3, sim.NewRandom(3))
	rn := NewRenamingNetwork(rt, net, tas.MakeTwoProc)
	st := rt.Run(M, func(p shmem.Proc) {
		rn.Rename(p, uint64(p.ID())+1)
	})
	if got := st.MaxEvent(shmem.EvComparator); got > uint64(net.Depth()) {
		t.Fatalf("a process entered %d comparators, depth is %d", got, net.Depth())
	}
}

func TestRenamingNetworkCrashSafety(t *testing.T) {
	// With crashes, survivors still get unique names in [1, k]: crashed
	// processes took steps, so they count toward contention k.
	const M = 16
	net := sortnet.OddEvenMergeNet(M)
	for seed := uint64(0); seed < 30; seed++ {
		at := map[int]uint64{int(seed % 8): seed / 3}
		rt := sim.New(seed, sim.NewCrashPlan(sim.NewRandom(seed), at))
		rn := NewRenamingNetwork(rt, net, tas.MakeTwoProc)
		const k = 8
		names := make([]uint64, k)
		st := rt.Run(k, func(p shmem.Proc) {
			names[p.ID()] = rn.Rename(p, uint64(p.ID())+1)
		})
		requireCrashed(t, seed, at, st)
		var got []uint64
		for i, n := range names {
			if !st.Crashed[i] {
				got = append(got, n)
			}
		}
		seen := map[uint64]bool{}
		for _, n := range got {
			if n < 1 || n > k {
				t.Fatalf("seed=%d: survivor name %d outside [1,%d]", seed, n, k)
			}
			if seen[n] {
				t.Fatalf("seed=%d: duplicate survivor name %d", seed, n)
			}
			seen[n] = true
		}
	}
}

func TestRenamingNetworkRejectsBadInitialName(t *testing.T) {
	net := sortnet.OddEvenMergeNet(4)
	rt := sim.New(1, sim.NewRoundRobin())
	rn := NewRenamingNetwork(rt, net, tas.MakeTwoProc)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.Run(1, func(p shmem.Proc) { rn.Rename(p, 5) })
}

func newStrongAdaptive(rt *sim.Runtime) *StrongAdaptive {
	return NewStrongAdaptive(rt, splitter.NewTree(rt), tas.MakeTwoProc)
}

func TestStrongAdaptiveTightness(t *testing.T) {
	// Theorem 3: names are exactly 1..k, for any k, with no knowledge of
	// the initial namespace.
	for name := range adversaries(0) {
		for seed := uint64(0); seed < 12; seed++ {
			for _, k := range []int{1, 2, 3, 8, 17} {
				adv := adversaries(seed)[name]
				rt := sim.New(seed, adv)
				sa := newStrongAdaptive(rt)
				names := make([]uint64, k)
				rt.Run(k, func(p shmem.Proc) {
					// uids deliberately huge and sparse: the algorithm is
					// independent of the initial namespace size M.
					names[p.ID()] = sa.Rename(p, uint64(p.ID())*1_000_003+7)
				})
				if err := CheckUniqueTight(names); err != nil {
					t.Fatalf("adv=%s seed=%d k=%d: %v", name, seed, k, err)
				}
			}
		}
	}
}

func TestStrongAdaptiveWithUnitTAS(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		rt := sim.New(seed, sim.NewRandom(seed))
		sa := NewStrongAdaptive(rt, splitter.NewTree(rt), tas.MakeUnit)
		const k = 9
		names := make([]uint64, k)
		rt.Run(k, func(p shmem.Proc) {
			names[p.ID()] = sa.Rename(p, uint64(p.ID())+1)
		})
		if err := CheckUniqueTight(names); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestStrongAdaptiveMultiShot(t *testing.T) {
	// The counter's usage pattern: repeated invocations with fresh uids
	// keep extending the tight namespace: after v total invocations the
	// names are exactly 1..v.
	rt := sim.New(5, sim.NewRandom(5))
	sa := newStrongAdaptive(rt)
	var uids UIDSource
	const k, rounds = 4, 5
	names := make([][]uint64, k)
	rt.Run(k, func(p shmem.Proc) {
		for r := 0; r < rounds; r++ {
			names[p.ID()] = append(names[p.ID()], sa.Rename(p, uids.Next(p)))
		}
	})
	var all []uint64
	for _, ns := range names {
		all = append(all, ns...)
	}
	if err := CheckUniqueTight(all); err != nil {
		t.Fatalf("multi-shot: %v", err)
	}
}

func TestStrongAdaptiveStepsAdaptive(t *testing.T) {
	// The defining property: per-process cost depends on k, not on the
	// uid magnitude (initial namespace size M). Compare k=2 with huge
	// uids against k=64.
	worst := func(k int, uidStride uint64) uint64 {
		var w uint64
		for seed := uint64(0); seed < 8; seed++ {
			rt := sim.New(seed, sim.NewRandom(seed))
			sa := newStrongAdaptive(rt)
			st := rt.Run(k, func(p shmem.Proc) {
				sa.Rename(p, uint64(p.ID())*uidStride+3)
			})
			if v := st.MaxSteps(); v > w {
				w = v
			}
		}
		return w
	}
	small := worst(2, 1<<40) // tiny contention, astronomically large namespace
	big := worst(64, 1)      // large contention, dense namespace
	if small > big {
		t.Errorf("k=2 with huge uids cost %d steps, k=64 cost %d: not adaptive", small, big)
	}
	// With the c=2 base the predicted growth is lg²k: from k=2 to k=64
	// that is up to 36x; linear (non-adaptive) growth would be 32x and
	// keep rising, while O(log² k) stays well below ~16x at this scale.
	if big > 16*small {
		t.Errorf("steps grew from %d (k=2) to %d (k=64): worse than polylog in k", small, big)
	}
	// And the absolute check against linearity: doubling k=64 to k=128
	// must grow costs by far less than 2x (log² predicts (7/6)² ≈ 1.36).
	bigger := worst(128, 1)
	if bigger > 7*big/4 {
		t.Errorf("steps grew from %d (k=64) to %d (k=128): linear-like growth", big, bigger)
	}
}

func TestStrongAdaptiveComparatorCountLogarithmic(t *testing.T) {
	// Theorem 3's headline: O(log k) comparator entries per process, here
	// with the c=2 base: O(log² k). Check k=64 stays under a generous
	// c·lg²k + c' budget.
	const k = 64
	lg := uint64(log2ceil(k))
	budget := 6*lg*lg + 40
	for seed := uint64(0); seed < 10; seed++ {
		rt := sim.New(seed, sim.NewRandom(seed))
		sa := newStrongAdaptive(rt)
		st := rt.Run(k, func(p shmem.Proc) {
			sa.Rename(p, uint64(p.ID())+1)
		})
		if got := st.MaxEvent(shmem.EvComparator); got > budget {
			t.Errorf("seed=%d: %d comparators entered, budget %d", seed, got, budget)
		}
	}
}

func TestLinearProbeBaseline(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		rt := sim.New(seed, sim.NewRandom(seed))
		lp := NewLinearProbe(rt, tas.MakeTwoProc)
		const k = 12
		names := make([]uint64, k)
		rt.Run(k, func(p shmem.Proc) {
			names[p.ID()] = lp.Rename(p, uint64(p.ID())+1)
		})
		if err := CheckUniqueTight(names); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestLinearProbeIsLinear(t *testing.T) {
	// The baseline's weakness: some process probes Θ(k) objects.
	rt := sim.New(1, sim.NewRandom(1))
	lp := NewLinearProbe(rt, tas.MakeTwoProc)
	const k = 32
	st := rt.Run(k, func(p shmem.Proc) {
		lp.Rename(p, uint64(p.ID())+1)
	})
	if got := st.MaxEvent(shmem.EvTASEnter); got < k/2 {
		t.Errorf("max probes %d; expected Θ(k)=%d for the linear baseline", got, k)
	}
}
