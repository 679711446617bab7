// Integration tests against the public facade: the full stack exercised
// end to end through both runtimes, the way a downstream user would drive
// it, including testing/quick property checks with scripted schedules.
package renaming_test

import (
	"bytes"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	renaming "repro"
)

func TestFacadeSimRenamingTight(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		rt := renaming.NewSim(seed, renaming.RandomSchedule(seed))
		ren := renaming.NewRenaming(rt)
		const k = 10
		names := make([]uint64, k)
		rt.Run(k, func(p renaming.Proc) {
			names[p.ID()] = ren.Rename(p, uint64(p.ID())+1)
		})
		assertTight(t, names)
	}
}

func TestFacadeNativeRenamingTight(t *testing.T) {
	// Real goroutines, Go-scheduler interleavings, hardware TAS.
	for trial := uint64(0); trial < 20; trial++ {
		rt := renaming.NewNative(trial)
		ren := renaming.NewRenaming(rt, renaming.WithHardwareTAS())
		const k = 16
		names := make([]uint64, k)
		rt.Run(k, func(p renaming.Proc) {
			names[p.ID()] = ren.Rename(p, uint64(p.ID())*7919+1)
		})
		assertTight(t, names)
	}
}

func TestFacadeNativeRegisterTAS(t *testing.T) {
	// The randomized register protocol must also be safe under real
	// concurrency (its safety argument is schedule-independent).
	for trial := uint64(0); trial < 10; trial++ {
		rt := renaming.NewNative(trial)
		ren := renaming.NewRenaming(rt, renaming.WithRegisterTAS())
		const k = 8
		names := make([]uint64, k)
		rt.Run(k, func(p renaming.Proc) {
			names[p.ID()] = ren.Rename(p, uint64(p.ID())+1)
		})
		assertTight(t, names)
	}
}

func TestFacadeBalancedBase(t *testing.T) {
	rt := renaming.NewSim(3, renaming.RandomSchedule(3))
	ren := renaming.NewRenaming(rt, renaming.WithBalancedBase())
	const k = 12
	names := make([]uint64, k)
	rt.Run(k, func(p renaming.Proc) {
		names[p.ID()] = ren.Rename(p, uint64(p.ID())+1)
	})
	assertTight(t, names)
}

func TestFacadeBitBatchingNative(t *testing.T) {
	rt := renaming.NewNative(5)
	const n = 32
	bb := renaming.NewBitBatchingRenaming(rt, n, renaming.WithHardwareTAS())
	names := make([]uint64, n)
	rt.Run(n, func(p renaming.Proc) {
		names[p.ID()] = bb.Rename(p, uint64(p.ID())+1)
	})
	assertTight(t, names)
}

func TestFacadeNetworkRenaming(t *testing.T) {
	rt := renaming.NewSim(4, renaming.RoundRobin())
	rn := renaming.NewNetworkRenaming(rt, 32)
	if rn.Width() != 32 || rn.Depth() < 10 {
		t.Fatalf("unexpected network shape: width=%d depth=%d", rn.Width(), rn.Depth())
	}
	const k = 9
	names := make([]uint64, k)
	rt.Run(k, func(p renaming.Proc) {
		names[p.ID()] = rn.Rename(p, uint64(p.ID()*3)+1)
	})
	assertTight(t, names)
}

func TestFacadeCounterNative(t *testing.T) {
	rt := renaming.NewNative(6)
	c := renaming.NewCounter(rt, renaming.WithHardwareTAS())
	const k, each = 8, 10
	var mu sync.Mutex
	perProcReads := make([][]uint64, k)
	rt.Run(k, func(p renaming.Proc) {
		var seen []uint64
		for i := 0; i < each; i++ {
			c.Inc(p)
			seen = append(seen, c.Read(p))
		}
		mu.Lock()
		perProcReads[p.ID()] = seen
		mu.Unlock()
	})
	for id, seen := range perProcReads {
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				t.Fatalf("proc %d saw counter go backwards: %v", id, seen)
			}
		}
		if final := seen[len(seen)-1]; final > k*each {
			t.Fatalf("proc %d read %d, above total increments %d", id, final, k*each)
		}
	}
}

func TestFacadeFetchIncNative(t *testing.T) {
	rt := renaming.NewNative(7)
	const m, k = 64, 16
	f := renaming.NewFetchInc(rt, m, renaming.WithHardwareTAS())
	if f.M() != m {
		t.Fatalf("M() = %d", f.M())
	}
	var mu sync.Mutex
	var got []uint64
	rt.Run(k, func(p renaming.Proc) {
		for i := 0; i < 3; i++ {
			v := f.Inc(p)
			mu.Lock()
			got = append(got, v)
			mu.Unlock()
		}
	})
	counts := map[uint64]int{}
	for _, v := range got {
		counts[v]++
	}
	for v := uint64(0); v < uint64(len(got)) && v < m-1; v++ {
		if counts[v] != 1 {
			t.Fatalf("ticket %d handed out %d times", v, counts[v])
		}
	}
}

func TestFacadeLTASNative(t *testing.T) {
	rt := renaming.NewNative(8)
	const ell, k = 5, 20
	o := renaming.NewLTAS(rt, ell, renaming.WithHardwareTAS())
	if o.Ell() != ell {
		t.Fatalf("Ell() = %d", o.Ell())
	}
	wins := make([]bool, k)
	rt.Run(k, func(p renaming.Proc) {
		wins[p.ID()] = o.Try(p)
	})
	n := 0
	for _, w := range wins {
		if w {
			n++
		}
	}
	if n != ell {
		t.Fatalf("%d winners, want %d", n, ell)
	}
}

func TestFacadeCrashSchedule(t *testing.T) {
	adv := renaming.CrashAt(renaming.RandomSchedule(9), map[int]uint64{2: 15})
	rt := renaming.NewSim(9, adv)
	ren := renaming.NewRenaming(rt)
	const k = 6
	names := make([]uint64, k)
	st := rt.Run(k, func(p renaming.Proc) {
		names[p.ID()] = ren.Rename(p, uint64(p.ID())+1)
	})
	if !st.Crashed[2] {
		t.Fatal("planned crash of process 2 did not fire")
	}
	var survivors []uint64
	for i, n := range names {
		if !st.Crashed[i] {
			survivors = append(survivors, n)
		}
	}
	seen := map[uint64]bool{}
	for _, n := range survivors {
		if n < 1 || n > k || seen[n] {
			t.Fatalf("bad survivor names %v", survivors)
		}
		seen[n] = true
	}
}

func TestFacadeStepCap(t *testing.T) {
	rt := renaming.NewSimCapped(1, renaming.RoundRobin(), 100)
	reg := rt.NewReg(0)
	st := rt.Run(2, func(p renaming.Proc) {
		for {
			reg.Read(p)
		}
	})
	if !st.StepCapHit {
		t.Fatal("step cap not enforced through facade")
	}
}

// TestQuickRenamingUnderScriptedSchedules is the property-based sweep: for
// quick-generated seeds, contention levels, and uid spreads, renaming is
// tight under a quick-generated schedule (every byte of the script picks
// the next process).
func TestQuickRenamingUnderScriptedSchedules(t *testing.T) {
	prop := func(seed uint64, kRaw uint8, stride uint64, script []byte) bool {
		k := int(kRaw)%12 + 1
		ids := make([]int, len(script))
		for i, b := range script {
			ids[i] = int(b) % k
		}
		rt := renaming.NewSim(seed, replaySchedule(ids))
		ren := renaming.NewRenaming(rt)
		names := make([]uint64, k)
		rt.Run(k, func(p renaming.Proc) {
			names[p.ID()] = ren.Rename(p, uint64(p.ID())*(stride|1)+1)
		})
		return tight(names)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFetchIncPrefix: under quick-generated schedules, completed
// fetch-and-increment values always form a saturated prefix.
func TestQuickFetchIncPrefix(t *testing.T) {
	prop := func(seed uint64, kRaw, mRaw uint8, script []byte) bool {
		k := int(kRaw)%8 + 1
		m := uint64(mRaw)%16 + 1
		ids := make([]int, len(script))
		for i, b := range script {
			ids[i] = int(b) % k
		}
		rt := renaming.NewSim(seed, replaySchedule(ids))
		f := renaming.NewFetchInc(rt, m)
		var mu sync.Mutex
		var got []uint64
		rt.Run(k, func(p renaming.Proc) {
			v := f.Inc(p)
			mu.Lock()
			got = append(got, v)
			mu.Unlock()
		})
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		for i, v := range got {
			want := uint64(i)
			if want >= m {
				want = m - 1
			}
			if v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// replaySchedule adapts a script of process indices to the facade's
// Adversary interface.
func replaySchedule(script []int) renaming.Adversary {
	return renaming.Scripted(script)
}

func assertTight(t *testing.T, names []uint64) {
	t.Helper()
	if !tight(names) {
		t.Fatalf("names %v are not exactly 1..%d", names, len(names))
	}
}

func tight(names []uint64) bool {
	seen := make(map[uint64]bool, len(names))
	for _, n := range names {
		if n < 1 || n > uint64(len(names)) || seen[n] {
			return false
		}
		seen[n] = true
	}
	return true
}

// TestFacadeLoadScenario drives the workload harness through the facade:
// a shrunken open-loop scenario against a fresh pool target, and the same
// scenario on the simulator, which must replay bit-identically per seed.
func TestFacadeLoadScenario(t *testing.T) {
	s, ok := renaming.FindScenario("poisson")
	if !ok {
		t.Fatal("catalog scenario poisson missing")
	}
	s.Duration = 200 * time.Millisecond
	s.Arrival.Rate = 2000
	s.Workers = 2

	r := renaming.RunScenario(s, renaming.NewLoadTarget(s.Seed))
	if r.Verdict != "ok" {
		t.Fatalf("native verdict %q\n%s", r.Verdict, r.JSON())
	}
	if r.Ops == 0 || r.Renames == 0 || r.Incs == 0 {
		t.Fatalf("mix not exercised: %d ops (%d renames, %d incs, %d reads)",
			r.Ops, r.Renames, r.Incs, r.Reads)
	}

	s.Ops = 60
	s1 := renaming.RunScenarioSim(s, 11)
	s2 := renaming.RunScenarioSim(s, 11)
	if s1.Verdict != "ok" {
		t.Fatalf("sim verdict %q", s1.Verdict)
	}
	if !bytes.Equal(s1.Stable().JSON(), s2.Stable().JSON()) {
		t.Fatal("sim scenario did not replay bit-identically per seed")
	}
}

// TestFacadeLoadCatalog pins the catalog surface: ≥8 named scenarios, all
// resolvable, churn among them with a fault plan armed.
func TestFacadeLoadCatalog(t *testing.T) {
	cat := renaming.LoadCatalog()
	if len(cat) < 8 {
		t.Fatalf("catalog has %d scenarios, want ≥ 8", len(cat))
	}
	churn, ok := renaming.FindScenario("churn")
	if !ok {
		t.Fatal("catalog scenario churn missing")
	}
	if churn.Churn == nil || churn.Faults == nil || churn.Faults.Crashes() == 0 {
		t.Fatal("churn scenario must vary k and arm a fault plan")
	}
}

// TestFacadePhasedPool pins the phased-counting facade: the served pool
// counts exactly under concurrency in every policy, and the stats surface
// reports the phase machinery.
func TestFacadePhasedPool(t *testing.T) {
	pool := renaming.NewPhasedCounterPool(
		renaming.WithLanes(4), renaming.WithEpoch(8),
		renaming.WithPhasedSeed(42), renaming.WithPhasePolicy(renaming.PhasePinSplit))
	const g, per = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				pool.Inc()
			}
		}()
	}
	wg.Wait()
	if v := pool.ReadStrict(); v != g*per {
		t.Fatalf("ReadStrict = %d, want %d", v, g*per)
	}
	st := pool.Stats()
	if st.Mode != renaming.PhaseSplit || st.Merges == 0 || st.Ops < g*per {
		t.Fatalf("stats off: %+v", st)
	}
}

// TestFacadePhasedCounterBare pins the unmanaged constructor on the sim
// runtime: mode transitions mid-execution keep the count exact.
func TestFacadePhasedCounterBare(t *testing.T) {
	rt := renaming.NewSim(5, renaming.RandomSchedule(5))
	c := renaming.NewPhasedCounter(rt, 4, 2)
	const k, each = 4, 6
	rt.Run(k, func(p renaming.Proc) {
		if p.ID() == 0 {
			c.SetMode(renaming.PhaseSplit)
		}
		for i := 0; i < each; i++ {
			c.Inc(p)
		}
		if p.ID() == 0 {
			c.SetMode(renaming.PhaseJoined)
		}
		c.Inc(p)
	})
	rt.Reset(6, renaming.RandomSchedule(6))
	var final uint64
	rt.Run(1, func(p renaming.Proc) { final = c.ReadStrict(p) })
	if want := uint64(k * (each + 1)); final != want {
		t.Fatalf("final = %d, want %d", final, want)
	}
}
