package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/maxreg"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/sortnet"
	"repro/internal/splitter"
	"repro/internal/tas"
)

// Config scales the experiment sweeps.
type Config struct {
	// Seeds is the number of independent runs per parameter point.
	Seeds int
	// Quick shrinks the parameter sweeps for smoke runs.
	Quick bool
	// Fresh rebuilds the runtime and the object graph for every seed
	// instead of resetting one instantiation (the pre-two-phase behavior;
	// a comparison knob — results are bit-identical either way, see the
	// reuse equivalence tests).
	Fresh bool
}

// sweep drives one parameter point of an experiment on the compile-once /
// instantiate-once / reset-many path: a single simulator runtime and a
// single instantiated object graph serve every seed, reset between
// executions (allocation-free after the first seed). build instantiates
// the graph and returns the per-execution body plus its reset; advFor
// builds a fresh adversary per seed (schedules carry state). With
// cfg.Fresh everything is rebuilt per seed instead.
type sweep struct {
	cfg    Config
	advFor func(seed uint64) sim.Adversary
	build  func(mem shmem.Mem) (body func(shmem.Proc), reset func())

	rt    *sim.Runtime
	body  func(shmem.Proc)
	reset func()
}

// randomAdv is the default uniformly random schedule family.
func randomAdv(seed uint64) sim.Adversary { return sim.NewRandom(seed) }

func newSweep(cfg Config, advFor func(uint64) sim.Adversary, build func(mem shmem.Mem) (func(shmem.Proc), func())) *sweep {
	return &sweep{cfg: cfg, advFor: advFor, build: build}
}

// run executes one seed's execution and returns its Stats.
func (s *sweep) run(seed uint64, k int) *shmem.Stats {
	switch {
	case s.cfg.Fresh || s.rt == nil:
		s.rt = sim.New(seed, s.advFor(seed))
		s.body, s.reset = s.build(s.rt)
	default:
		s.reset()
		s.rt.Reset(seed, s.advFor(seed))
	}
	return s.rt.Run(k, s.body)
}

// All runs every experiment and returns the tables in index order.
func All(cfg Config) []*Table {
	return []*Table{
		E1BitBatching(cfg),
		E4BatchLayout(cfg),
		E5RenamingNetwork(cfg),
		E7AdaptiveDepth(cfg),
		E8StrongAdaptive(cfg),
		E9LowerBound(cfg),
		E10Counter(cfg),
		E12LTAS(cfg),
		E13FetchInc(cfg),
		E14Baselines(cfg),
		E15Ablations(cfg),
		E16Wakeup(cfg),
		E17CountingNetworks(cfg),
	}
}

// agg accumulates per-run aggregates.
type agg struct {
	n          int
	sum, worst float64
}

func (a *agg) add(v float64) {
	a.n++
	a.sum += v
	if v > a.worst {
		a.worst = v
	}
}

func (a *agg) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// E1BitBatching reproduces Lemma 1 and Corollaries 1–2: per-process
// test-and-set probes O(log² n), per-process steps O(log³ n·log log n)
// w.h.p., total steps O(n log² n·log log n), total TAS operations
// O(n log n), at full contention k = n.
func E1BitBatching(cfg Config) *Table {
	t := &Table{
		ID:    "E1",
		Title: "BitBatching at full contention (Lemma 1, Cor. 1–2)",
		Claim: "every process finishes in stage 1 w.h.p. after O(log² n) TAS probes; " +
			"steps O(log³ n) per process; total TAS ops O(n log n)",
		Cols: []string{"n", "maxProbes", "probes/lg²n", "maxSteps", "steps/lg³n",
			"totalSteps", "total/(n·lg²n)", "totalTAS", "tas/(n·lgn)"},
	}
	sizes := []int{16, 32, 64, 128, 256}
	if cfg.Quick {
		sizes = []int{16, 32, 64}
	}
	for _, n := range sizes {
		var probes, steps, total, totalTAS agg
		sw := newSweep(cfg, randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
			bb := core.NewBitBatching(mem, n, tas.MakeTwoProcPool(mem))
			return func(p shmem.Proc) { bb.Rename(p, uint64(p.ID())+1) }, bb.Reset
		})
		for seed := 0; seed < cfg.Seeds; seed++ {
			st := sw.run(uint64(seed), n)
			probes.add(float64(st.MaxEvent(shmem.EvTASEnter)))
			steps.add(float64(st.MaxSteps()))
			total.add(float64(st.TotalSteps()))
			totalTAS.add(float64(st.TotalEvent(shmem.EvTASEnter)))
		}
		l := lg(float64(n))
		t.AddRow(d(n),
			f1(probes.worst), f2(probes.worst/(l*l)),
			f1(steps.worst), f2(steps.worst/(l*l*l)),
			f1(total.mean()), f2(total.mean()/(float64(n)*l*l)),
			f1(totalTAS.mean()), f2(totalTAS.mean()/(float64(n)*l)))
	}
	t.Notes = append(t.Notes,
		"ratio columns flat or shrinking with n ⇒ measured growth within the claimed asymptotic",
		fmt.Sprintf("%d seeds per row, uniform random schedule", cfg.Seeds))
	return t
}

// E4BatchLayout reproduces Figure 1: the geometric batch partition.
func E4BatchLayout(cfg Config) *Table {
	t := &Table{
		ID:    "E4",
		Title: "BitBatching batch layout (Figure 1)",
		Claim: "batches of size n/2, n/4, …, with a final batch of Θ(log n) slots",
		Cols:  []string{"n", "batches", "sizes", "finalLen", "final/lgn"},
	}
	sizes := []int{64, 256, 1024}
	if cfg.Quick {
		sizes = []int{64, 256}
	}
	for _, n := range sizes {
		layout := core.BatchLayout(n)
		var sizesStr string
		for i, b := range layout {
			if i > 0 {
				sizesStr += ","
			}
			if i >= 6 {
				sizesStr += "…"
				break
			}
			sizesStr += d(b.Len())
		}
		final := layout[len(layout)-1].Len()
		t.AddRow(d(n), d(len(layout)), sizesStr, d(final), f2(float64(final)/lg(float64(n))))
	}
	return t
}

// E5RenamingNetwork reproduces Theorem 1 and Corollary 3: a renaming
// network over an explicit sorting network of width M renames k ≤ M
// participants into 1..k, entering at most depth(M) = O(log² M)
// comparators each (Batcher base).
func E5RenamingNetwork(cfg Config) *Table {
	t := &Table{
		ID:    "E5",
		Title: "Renaming network over Batcher OEM (Theorem 1, Cor. 3)",
		Claim: "names exactly 1..k; per-process comparator entries ≤ network depth = O(log² M)",
		Cols:  []string{"M", "k", "depth", "maxComps", "comps/depth", "maxSteps", "steps/lg²M", "tight"},
	}
	ms := []int{16, 64, 256}
	if cfg.Quick {
		ms = []int{16, 64}
	}
	for _, m := range ms {
		for _, k := range []int{m / 4, m} {
			if k < 1 {
				continue
			}
			net := sortnet.SharedOEMNet(m)
			var comps, steps agg
			tight := true
			names := make([]uint64, k)
			sw := newSweep(cfg, randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
				rn := core.NewRenamingNetwork(mem, net, tas.MakeTwoProcPool(mem))
				return func(p shmem.Proc) {
					names[p.ID()] = rn.Rename(p, uint64(p.ID()*m/k)+1)
				}, rn.Reset
			})
			for seed := 0; seed < cfg.Seeds; seed++ {
				st := sw.run(uint64(seed), k)
				if core.CheckUniqueTight(names) != nil {
					tight = false
				}
				comps.add(float64(st.MaxEvent(shmem.EvComparator)))
				steps.add(float64(st.MaxSteps()))
			}
			l := lg(float64(m))
			t.AddRow(d(m), d(k), d(net.Depth()),
				f1(comps.worst), f2(comps.worst/float64(net.Depth())),
				f1(steps.worst), f2(steps.worst/(l*l)),
				fmt.Sprintf("%v", tight))
		}
	}
	return t
}

// E7AdaptiveDepth reproduces Theorem 2: in the adaptive sorting network, a
// value entering on wire n and leaving on wire m traverses
// O(log^c max(n,m)) comparators (c = 2 with the Batcher base). Measured
// with a global-minimum token (the participant-vs-ghost walk).
func E7AdaptiveDepth(cfg Config) *Table {
	t := &Table{
		ID:    "E7",
		Title: "Adaptive sorting network traversal (Theorem 2)",
		Claim: "value entering wire n traverses O(log² n) comparators, independent of total width (2^32 wires)",
		Cols:  []string{"entryWire", "met", "met/lg²(wire)", "levelBound"},
	}
	ad := sortnet.NewAdaptive(sortnet.MaxAdaptiveWire)
	wires := []uint64{0, 1, 7, 63, 511, 4095, 1 << 15, 1 << 20, 1 << 25}
	if cfg.Quick {
		wires = []uint64{0, 7, 511, 1 << 15}
	}
	alwaysUp := func(sortnet.Comp, uint64, uint64) bool { return true }
	for _, w := range wires {
		_, met := ad.Walk(w, alwaysUp)
		l := lg(float64(w + 2))
		bound := ad.DepthOfLevel(ad.LevelOfWire(2*w + 2))
		t.AddRow(d(w), d(met), f2(float64(met)/(l*l)), d(bound))
	}
	t.Notes = append(t.Notes,
		"total network width is 2^32 wires; the flat met/lg² column is the adaptivity claim")
	return t
}

// E8StrongAdaptive reproduces Theorem 3: strong adaptive renaming assigns
// exactly 1..k with O(log k) expected comparator entries per process and
// O(log² k) steps w.h.p. (Batcher base adds one log factor: comparator
// entries O(log² k), steps O(log³ k) worst measured).
func E8StrongAdaptive(cfg Config) *Table {
	t := &Table{
		ID:    "E8",
		Title: "Strong adaptive renaming (Theorem 3)",
		Claim: "names exactly 1..k; comparator entries per process polylog(k), independent of namespace size",
		Cols: []string{"k", "meanComps", "maxComps", "comps/lg²k", "meanSteps",
			"maxSteps", "steps/lg²k", "splitters", "tight"},
	}
	ks := []int{2, 4, 8, 16, 32, 64, 128, 256}
	if cfg.Quick {
		ks = []int{2, 8, 32, 128}
	}
	var fitX, fitY []float64
	for _, k := range ks {
		var meanComps, maxComps, meanSteps, maxSteps, split agg
		tight := true
		names := make([]uint64, k)
		sw := newSweep(cfg, randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
			sa := core.NewStrongAdaptive(mem, splitter.NewTree(mem), tas.MakeTwoProcPool(mem))
			return func(p shmem.Proc) {
				names[p.ID()] = sa.Rename(p, uint64(p.ID())+1)
			}, sa.Reset
		})
		for seed := 0; seed < cfg.Seeds; seed++ {
			st := sw.run(uint64(seed), k)
			if core.CheckUniqueTight(names) != nil {
				tight = false
			}
			var sumC, sumS float64
			for i := range st.PerProc {
				sumC += float64(st.PerProc[i].Events[shmem.EvComparator])
				sumS += float64(st.PerProc[i].Steps())
			}
			meanComps.add(sumC / float64(k))
			maxComps.add(float64(st.MaxEvent(shmem.EvComparator)))
			meanSteps.add(sumS / float64(k))
			maxSteps.add(float64(st.MaxSteps()))
			split.add(float64(st.MaxEvent(shmem.EvSplitter)))
		}
		l := lg(float64(k))
		fitX = append(fitX, float64(k))
		fitY = append(fitY, meanSteps.mean())
		t.AddRow(d(k),
			f1(meanComps.mean()), f1(maxComps.worst), f2(maxComps.worst/(l*l)),
			f1(meanSteps.mean()), f1(maxSteps.worst), f2(maxSteps.worst/(l*l)),
			f1(split.worst), fmt.Sprintf("%v", tight))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"log-log fit of mean steps vs k: exponent %.2f (polylog ⇒ well below 1; linear baseline ⇒ 1)",
		FitExponent(fitX, fitY)))
	return t
}

// E9LowerBound confronts Theorem 5: any adaptive strong renaming has
// worst-case expected step complexity Ω(log k); the measured expected cost
// of our algorithm must therefore sit a constant factor above log k, and
// it does — the steps/lgk column is bounded below and the algorithm's
// growth matches the lower bound's shape within log factors.
func E9LowerBound(cfg Config) *Table {
	t := &Table{
		ID:    "E9",
		Title: "Lower bound confrontation (Theorem 5)",
		Claim: "every adaptive strong renaming costs Ω(log k) expected steps; measured expected cost must stay above c·lg k",
		Cols:  []string{"k", "meanSteps", "steps/lgk", "aboveBound"},
	}
	ks := []int{4, 16, 64, 256}
	if cfg.Quick {
		ks = []int{4, 32}
	}
	for _, k := range ks {
		var mean agg
		sw := newSweep(cfg, randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
			sa := core.NewStrongAdaptive(mem, splitter.NewTree(mem), tas.MakeTwoProcPool(mem))
			return func(p shmem.Proc) { sa.Rename(p, uint64(p.ID())+1) }, sa.Reset
		})
		for seed := 0; seed < cfg.Seeds; seed++ {
			st := sw.run(uint64(seed), k)
			mean.add(float64(st.TotalSteps()) / float64(k))
		}
		l := lg(float64(k))
		t.AddRow(d(k), f1(mean.mean()), f2(mean.mean()/l),
			fmt.Sprintf("%v", mean.mean() >= l))
	}
	return t
}

// E10Counter reproduces Lemma 4: the monotone counter's increments cost
// O(log v) expected steps (v = increments started), against the CAS
// baseline whose per-increment cost grows with contention.
func E10Counter(cfg Config) *Table {
	t := &Table{
		ID:    "E10",
		Title: "Monotone-consistent counter (Lemma 4)",
		Claim: "increment O(log v) expected steps; read O(log v); monotone-consistent in every run",
		Cols: []string{"k", "incsEach", "v", "meanIncSteps", "inc/lgv", "meanReadSteps",
			"casIncSteps", "aacIncSteps", "consistent"},
	}
	shapes := []struct{ k, each int }{{4, 4}, {8, 8}, {16, 16}}
	if cfg.Quick {
		shapes = shapes[:2]
	}
	for _, sh := range shapes {
		v := sh.k * sh.each
		var inc, read, casInc, aacInc agg
		consistent := true

		// Per-seed observation buffers, cleared between executions (the
		// bodies are built once and capture them).
		var incs, reads []core.Interval
		var incSteps, readSteps agg
		csw := newSweep(cfg, randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
			c := core.NewMonotoneCounter(mem, tas.MakeTwoProcPool(mem))
			return func(p shmem.Proc) {
				for i := 0; i < sh.each; i++ {
					s0, t0 := p.Now(), stepsOf(p)
					c.Inc(p)
					incs = append(incs, core.Interval{Start: s0, End: p.Now()})
					incSteps.add(float64(stepsOf(p) - t0))
					s0, t0 = p.Now(), stepsOf(p)
					val := c.Read(p)
					reads = append(reads, core.Interval{Start: s0, End: p.Now(), Val: val})
					readSteps.add(float64(stepsOf(p) - t0))
				}
			}, c.Reset
		})
		// CAS baseline under the same contention shape.
		casSW := newSweep(cfg, randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
			cc := core.NewCASCounter(mem)
			return func(p shmem.Proc) {
				for i := 0; i < sh.each; i++ {
					cc.Inc(p)
				}
			}, cc.Reset
		})
		// AAC [17] baseline: deterministic, linearizable, the
		// construction the paper says it beats by a log factor.
		aacSW := newSweep(cfg, randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
			ac := maxreg.NewAACCounter(mem, sh.k)
			return func(p shmem.Proc) {
				for i := 0; i < sh.each; i++ {
					ac.Inc(p)
				}
			}, ac.Reset
		})
		for seed := 0; seed < cfg.Seeds; seed++ {
			incs, reads = incs[:0], reads[:0]
			incSteps, readSteps = agg{}, agg{}
			csw.run(uint64(seed), sh.k)
			if core.CheckMonotoneCounter(incs, reads) != nil {
				consistent = false
			}
			inc.add(incSteps.mean())
			read.add(readSteps.mean())

			st2 := casSW.run(uint64(seed), sh.k)
			casInc.add(float64(st2.TotalSteps()) / float64(v))

			st3 := aacSW.run(uint64(seed), sh.k)
			aacInc.add(float64(st3.TotalSteps()) / float64(v))
		}
		t.AddRow(d(sh.k), d(sh.each), d(v),
			f1(inc.mean()), f2(inc.mean()/lg(float64(v))),
			f1(read.mean()), f1(casInc.mean()), f1(aacInc.mean()),
			fmt.Sprintf("%v", consistent))
	}
	t.Notes = append(t.Notes,
		"the CAS baseline is linearizable but its increments retry under contention; "+
			"AAC [17] is the deterministic linearizable O(log n·log v) construction; "+
			"the paper's counter trades linearizability for adaptivity")
	return t
}

// stepsOf reads a process's own running step count through the Stats
// mechanism — a tiny helper interface implemented by both runtimes' procs.
func stepsOf(p shmem.Proc) uint64 {
	type stepped interface{ StepsTaken() uint64 }
	if s, ok := p.(stepped); ok {
		return s.StepsTaken()
	}
	return p.Now() // fallback: global clock (upper bound on own steps)
}

// E12LTAS reproduces Lemma 5: the ℓ-test-and-set built from strong
// adaptive renaming plus a doorway is linearizable with exactly
// min(ℓ, k) winners and O(log k) expected steps.
func E12LTAS(cfg Config) *Table {
	t := &Table{
		ID:    "E12",
		Title: "ℓ-test-and-set (Lemma 5, Algorithm 1)",
		Claim: "exactly min(ℓ,k) winners; linearizable; O(log k) expected steps",
		Cols:  []string{"ell", "k", "winners", "linearizable", "meanSteps", "steps/lgk"},
	}
	shapes := []struct {
		ell uint64
		k   int
	}{{1, 8}, {4, 16}, {16, 8}, {8, 64}}
	if cfg.Quick {
		shapes = shapes[:3]
	}
	for _, sh := range shapes {
		winners := -1
		linearizable := true
		var steps agg
		ops := make([]core.Interval, sh.k)
		sw := newSweep(cfg, randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
			o := core.NewLTestAndSet(mem, sh.ell, tas.MakeTwoProcPool(mem))
			return func(p shmem.Proc) {
				s0 := p.Now()
				v := uint64(0)
				if o.Try(p) {
					v = 1
				}
				ops[p.ID()] = core.Interval{Start: s0, End: p.Now(), Val: v}
			}, o.Reset
		})
		for seed := 0; seed < cfg.Seeds; seed++ {
			st := sw.run(uint64(seed), sh.k)
			w := 0
			for _, op := range ops {
				if op.Val == 1 {
					w++
				}
			}
			winners = w
			if core.CheckLTASLinearizable(ops, sh.ell) != nil {
				linearizable = false
			}
			steps.add(float64(st.TotalSteps()) / float64(sh.k))
		}
		t.AddRow(d(sh.ell), d(sh.k), d(winners),
			fmt.Sprintf("%v", linearizable),
			f1(steps.mean()), f2(steps.mean()/lg(float64(sh.k))))
	}
	return t
}

// E13FetchInc reproduces Theorem 6: the m-valued fetch-and-increment is
// linearizable with O(log k · log m) expected step complexity.
func E13FetchInc(cfg Config) *Table {
	t := &Table{
		ID:    "E13",
		Title: "m-valued fetch-and-increment (Theorem 6, Algorithm 2)",
		Claim: "linearizable; steps O(log k · log m) expected",
		Cols:  []string{"m", "k", "meanSteps", "steps/(lgk·lgm)", "linearizable"},
	}
	shapes := []struct {
		m uint64
		k int
	}{{16, 4}, {64, 4}, {256, 4}, {64, 16}, {64, 64}}
	if cfg.Quick {
		shapes = shapes[:3]
	}
	for _, sh := range shapes {
		var steps agg
		linearizable := true
		var ops []core.Interval
		sw := newSweep(cfg, randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
			f := core.NewFetchInc(mem, sh.m, tas.MakeTwoProcPool(mem))
			return func(p shmem.Proc) {
				s0 := p.Now()
				v := f.Inc(p)
				ops = append(ops, core.Interval{Start: s0, End: p.Now(), Val: v})
			}, f.Reset
		})
		for seed := 0; seed < cfg.Seeds; seed++ {
			ops = ops[:0]
			st := sw.run(uint64(seed), sh.k)
			if core.CheckFetchIncLinearizable(ops, sh.m) != nil {
				linearizable = false
			}
			steps.add(float64(st.TotalSteps()) / float64(sh.k))
		}
		t.AddRow(d(sh.m), d(sh.k),
			f1(steps.mean()),
			f2(steps.mean()/(lg(float64(sh.k))*lg(float64(sh.m)))),
			fmt.Sprintf("%v", linearizable))
	}
	return t
}

// E14Baselines is the positioning table of Sections 1 and 3: strong
// adaptive renaming vs the linear-probing baseline vs BitBatching, on step
// complexity and space.
func E14Baselines(cfg Config) *Table {
	t := &Table{
		ID:    "E14",
		Title: "Head-to-head: strong adaptive vs linear probe vs BitBatching",
		Claim: "adaptive algorithm polylog steps beats linear probing Θ(k); BitBatching wins on space (Discussion, §1)",
		Cols: []string{"k", "adaptSteps", "linearSteps", "bitbatchSteps",
			"adaptObjects", "bitbatchObjects"},
	}
	ks := []int{8, 32, 128}
	if cfg.Quick {
		ks = []int{8, 32}
	}
	var fitX, fitAd, fitLp []float64
	for _, k := range ks {
		var adSteps, lpSteps, bbSteps agg
		adObjects, bbObjects := 0, 0
		var sa *core.StrongAdaptive
		adSW := newSweep(cfg, randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
			sa = core.NewStrongAdaptive(mem, splitter.NewTree(mem), tas.MakeTwoProcPool(mem))
			return func(p shmem.Proc) { sa.Rename(p, uint64(p.ID())+1) }, sa.Reset
		})
		lpSW := newSweep(cfg, randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
			lp := core.NewLinearProbe(mem, tas.MakeTwoProcPool(mem))
			return func(p shmem.Proc) { lp.Rename(p, uint64(p.ID())+1) }, lp.Reset
		})
		bbSW := newSweep(cfg, randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
			bb := core.NewBitBatching(mem, k, tas.MakeTwoProcPool(mem))
			return func(p shmem.Proc) { bb.Rename(p, uint64(p.ID())+1) }, bb.Reset
		})
		for seed := 0; seed < cfg.Seeds; seed++ {
			st := adSW.run(uint64(seed), k)
			adSteps.add(float64(st.MaxSteps()))
			if seed == 0 {
				// One execution's lazy footprint (seed 0 in either mode; on
				// the reused graph the table union would otherwise
				// accumulate across seeds).
				adObjects = sa.ComparatorObjects() + sa.SplitterNodes()
			}

			st2 := lpSW.run(uint64(seed), k)
			lpSteps.add(float64(st2.MaxSteps()))

			st3 := bbSW.run(uint64(seed), k)
			bbSteps.add(float64(st3.MaxSteps()))
			bbObjects = k // one RatRace per name, allocated up front
		}
		fitX = append(fitX, float64(k))
		fitAd = append(fitAd, adSteps.mean())
		fitLp = append(fitLp, lpSteps.mean())
		t.AddRow(d(k),
			f1(adSteps.worst), f1(lpSteps.worst), f1(bbSteps.worst),
			d(adObjects), d(bbObjects))
	}
	t.Notes = append(t.Notes,
		"adaptObjects counts lazily allocated comparators+splitters (grows with k); "+
			"BitBatching preallocates exactly n top-level objects — its space advantage",
		fmt.Sprintf("log-log steps-vs-k exponents: adaptive %.2f vs linear probe %.2f "+
			"(the separation the paper proves)",
			FitExponent(fitX, fitAd), FitExponent(fitX, fitLp)))
	return t
}
