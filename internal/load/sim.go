package load

import (
	"bytes"
	"time"

	"repro/internal/exec"
	"repro/internal/phase"
	"repro/internal/rng"
	"repro/internal/shmem"
	"repro/internal/sim"
)

// RunSim executes scenario s on the deterministic simulator runtime and
// returns a Report whose every field except ElapsedSec is a pure function
// of (seed, scenario): op counts, names, crash sets, step-count quantiles,
// and the checksum replay bit-identically across runs (the determinism
// test and renameload -runtime sim pin this).
//
// There is no wall clock on the simulator, so the mapping is: the op
// budget (Scenario.Ops, default 240) spans the scenario's virtual
// duration; op i runs at virtual time (i/N)·Duration, which fixes its
// phase class and — under Churn — its wave width k(t). Operations run one
// at a time (the simulator is a serial lock-step machine): each gets a
// fresh runtime epoch via Reset(opSeed, Random(opSeed)) with opSeed drawn
// from a seed-derived stream, and its "latency" is the execution's maximum
// per-process step count — the paper's time-complexity measure, fed
// through the same histogram machinery as native nanoseconds.
func RunSim(s Scenario, seed uint64) *Report {
	s = s.withDefaults()
	s.Seed = seed
	n := s.Ops
	if n == 0 {
		n = 240
	}
	prof := buildProfile(s.Arrival, s.Duration)

	var z *zipf
	if s.Mix.Skew > 0 {
		z = newZipf(s.Mix.Targets, s.Mix.Skew)
	}
	workers := make([]*worker, s.Workers)
	for i := range workers {
		w := &worker{id: i, gen: rng.Derived(seed, uint64(i)), z: z}
		w.hists = make([]Hist, len(prof.classes))
		workers[i] = w
	}

	rt := sim.New(seed, sim.NewRandom(seed))
	sa := newRenamer()(rt)

	// Counter traffic runs on one accumulating phased counter, as it does
	// on a server. A serial lock-step machine has no live contention
	// gauges, so the mode is driven deterministically from the declared
	// load shape — the simulator analogue of the native pool's auto
	// controller: split when the churn width crests past its midpoint
	// (wave scenarios) or the offered rate is in the upper half of the
	// profile's range, joined otherwise. Deterministic in t, hence per
	// (seed, scenario).
	pc := phase.NewAAC(rt, phasedWaveLanes, phasedWaveEpoch)
	loRate, hiRate := prof.rateBounds()
	phasedModeAt := func(t float64) phase.Mode {
		if s.Churn != nil {
			if 2*s.Churn.kAt(t) >= s.Churn.MinK+s.Churn.MaxK {
				return phase.Split
			}
			return phase.Joined
		}
		if hiRate > loRate && prof.rateAt(t) >= (loRate+hiRate)/2 {
			return phase.Split
		}
		return phase.Joined
	}

	// One execution context per wave width, with the scenario's plan armed;
	// a separate solo context for the per-op kinds keeps them fault-free.
	solo := exec.New(rt, 1)
	waves := map[int]*exec.Execution{}
	waveFor := func(k int) *exec.Execution {
		ex := waves[k]
		if ex == nil {
			ex = exec.New(rt, k)
			if s.Faults != nil {
				ex.Faults(s.Faults)
			}
			waves[k] = ex
		}
		return ex
	}

	opSeeds := rng.Derive(seed, 0x10ad)
	ks := newKSampler(len(prof.classes))
	names := make([]uint64, 0, 64)
	maxWaveK := 0
	var checksum, nameSum, crashes uint64
	checksum = fold(0, seed)

	start := time.Now()
	for i := uint64(0); i < n; i++ {
		w := workers[i%uint64(len(workers))]
		t := float64(i) / float64(n) * prof.total
		class := prof.classAt(t)
		kind := s.Mix.pick(&w.gen)
		// The simulator has one shared object graph per kind — no shards to
		// route to — but a skewed scenario still draws its target here, from
		// the same worker stream as the native runner, and folds it into the
		// checksum: the Zipf stream itself is pinned replay-deterministic.
		if key, keyed := w.target(kind); keyed {
			checksum = fold(checksum, 0x21f<<32|key)
		}
		opSeed := opSeeds.Next()
		rt.Reset(opSeed, sim.NewRandom(opSeed))

		var st *shmem.Stats
		switch kind {
		case opRename:
			sa.Reset()
			var name uint64
			st = solo.Run(func(p shmem.Proc) { name = sa.Rename(p, 1) })
			nameSum += name
			checksum = fold(checksum, name)
		case opInc:
			pc.SetMode(phasedModeAt(t))
			st = solo.Run(func(p shmem.Proc) { pc.Inc(p) })
		case opRead:
			var v uint64
			pc.SetMode(phasedModeAt(t))
			st = solo.Run(func(p shmem.Proc) { v = pc.Read(p) })
			checksum = fold(checksum, v)
		case opWave:
			k := s.kAt(t)
			ks.sample(class, k)
			if k > maxWaveK {
				maxWaveK = k
			}
			if s.Phased {
				// Phased wave: k processes run the native runner's phased
				// wave on the shared phased counter with the scenario's plan
				// armed — crashes land inside merge windows; idempotent
				// merges keep the accumulating value exact.
				st = waveFor(min(k, phasedWaveLanes)).Run(func(p shmem.Proc) { phasedWave(pc, p) })
				for pid, crashed := range st.Crashed {
					if crashed {
						crashes++
						checksum = fold(checksum, 0xc0a5<<16|uint64(pid))
					}
				}
				break
			}
			sa.Reset()
			if cap(names) < k {
				names = make([]uint64, k)
			}
			names = names[:k]
			for j := range names {
				names[j] = 0
			}
			st = waveFor(k).Run(func(p shmem.Proc) {
				names[p.ID()] = sa.Rename(p, uint64(p.ID())+1)
			})
			for pid, crashed := range st.Crashed {
				if crashed {
					crashes++
					checksum = fold(checksum, 0xc0a5<<16|uint64(pid))
				}
			}
			for _, name := range names {
				nameSum += name
				checksum = fold(checksum, name)
			}
		}
		lat := st.MaxSteps()
		w.observe(class, lat, 0)
		w.ops[kind]++
		w.count++
		checksum = fold(checksum, lat)
	}
	elapsed := time.Since(start)

	r := buildReport(&s, prof, workers, elapsed, "sim", "steps", crashes, ks, maxWaveK)
	r.NameSum = nameSum
	r.Checksum = checksum
	return r
}

// fold order-sensitively mixes v into h (Boost hash_combine shape): the
// run checksum.
func fold(h, v uint64) uint64 {
	return h ^ (v + 0x9e3779b97f4a7c15 + h<<6 + h>>2)
}

// SimReplayMatches runs s twice on the simulator with the same seed and
// reports whether the two runs are bit-identical modulo the wall-clock
// field — the acceptance check behind renameload -runtime sim and the
// determinism test. The second report is returned (its verdict annotated
// with the replay outcome).
func SimReplayMatches(s Scenario, seed uint64) (*Report, bool) {
	r1 := RunSim(s, seed)
	r2 := RunSim(s, seed)
	ok := bytes.Equal(r1.Stable().JSON(), r2.Stable().JSON())
	if !ok {
		r2.Verdict = "suspect: simulator replay diverged across runs of one seed"
	}
	return r2, ok
}
