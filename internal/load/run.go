package load

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/phase"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/shmem"
	"repro/internal/sortnet"
	"repro/internal/tas"
	"repro/internal/wire"
)

// Target is the served system under load: the sharded pools the generators
// hit, plus the instantiation recipes the simulator runner stamps onto its
// own runtime. NewTarget builds the production configuration (hardware
// TAS, native runtimes); the facade builds one from its blueprints.
type Target struct {
	Rename  *serve.Pool[*core.StrongAdaptive]
	Counter *serve.Pool[*core.MonotoneCounter]
	// Phased serves the shared contention-adaptive phased counter (Phased
	// scenarios route Inc/Read here; the pool's auto controller drives the
	// split/joined mode off live contention).
	Phased *phase.Pool
	// PhasedWave pools per-instance phased counters for Phased Wave ops:
	// each wave checks one out and runs a k-process execution against it
	// with the scenario's FaultPlan armed, so crashes land inside merge
	// windows on a private instance (the shared Phased counter's lanes stay
	// single-writer).
	PhasedWave *serve.Pool[*phase.Counter]
	// NewRename and NewCounter instantiate the same object shapes on an
	// arbitrary Mem — the simulator runner uses them (pools are native).
	NewRename  func(mem shmem.Mem) *core.StrongAdaptive
	NewCounter func(mem shmem.Mem) *core.MonotoneCounter
	// NewPhased instantiates the wave-shaped phased counter on an arbitrary
	// Mem (the simulator runner's accumulating counter).
	NewPhased func(mem shmem.Mem) *phase.Counter
}

// Phased wave-instance shape: enough process slots for the widest catalog
// churn, and an epoch small enough that every wave crosses merge windows
// (where the crash plans are aimed).
const (
	phasedWaveLanes = 32
	phasedWaveEpoch = 4
)

// recipes returns the default instantiation recipes: the strong adaptive
// renamer and the monotone counter with hardware test-and-set (the
// compiled blueprint behind the renamer is cached process-wide).
func recipes() (newRename func(mem shmem.Mem) *core.StrongAdaptive, newCounter func(mem shmem.Mem) *core.MonotoneCounter) {
	saBP := core.CompileStrongAdaptive(sortnet.BaseOEM)
	newRename = func(mem shmem.Mem) *core.StrongAdaptive {
		return saBP.Instantiate(mem, tas.MakeUnit)
	}
	newCounter = func(mem shmem.Mem) *core.MonotoneCounter {
		return core.NewMonotoneCounter(mem, tas.MakeUnit)
	}
	return newRename, newCounter
}

// NewTarget builds the default target: pools of strong adaptive renamers
// and monotone counters with hardware test-and-set, seeded from seed.
func NewTarget(seed uint64) *Target {
	newRename, newCounter := recipes()
	newPhased := func(mem shmem.Mem) *phase.Counter {
		return phase.NewAAC(mem, phasedWaveLanes, phasedWaveEpoch)
	}
	return &Target{
		Rename:     serve.New(serve.Options{Seed: seed}, newRename),
		Counter:    serve.New(serve.Options{Seed: seed + 1}, newCounter),
		Phased:     phase.NewPool(phase.Options{Seed: seed + 2}),
		PhasedWave: serve.New(serve.Options{Seed: seed + 3}, newPhased),
		NewRename:  newRename,
		NewCounter: newCounter,
		NewPhased:  newPhased,
	}
}

// The pooled per-operation bodies. Package-level funcs: passing them to
// Pool.Do involves no closure allocation on the per-op path.

func doRename(p shmem.Proc, sa *core.StrongAdaptive) { sa.Rename(p, 1) }
func doInc(p shmem.Proc, c *core.MonotoneCounter)    { c.Inc(p) }
func doRead(p shmem.Proc, c *core.MonotoneCounter)   { c.Read(p) }

// worker is one generator goroutine's private state. Everything the per-op
// measurement path touches lives here: the phase histograms, the arrival
// schedule, and the op-kind counters — no sharing, no locking, no
// allocation after setup (pinned by TestMeasurePathAllocationFree and
// BenchmarkMeasurePath).
type worker struct {
	id    int
	gen   rngState
	sc    *sched // nil for closed-loop kinds
	z     *zipf  // shared target sampler; nil when the scenario has no skew
	hists []Hist // one per phase class
	late  Hist   // scheduling lateness (behind-schedule starts)
	ops   [numOpKinds]uint64
	count uint64 // total completed ops
}

// rngState is the worker's private stream (by value: no heap allocation on
// reseed).
type rngState = rng.SplitMix64

// observe records one completed operation into the worker's shards: the
// latency sample into the phase histogram and, when the op started late
// against its schedule, the lateness. This is the whole allocation-free
// measurement path.
func (w *worker) observe(class int, lat uint64, late uint64) {
	w.hists[class].Record(lat)
	if late > 0 {
		w.late.Record(late)
	}
}

// Run executes scenario s against tg on the native runtime and reports
// the measured latency distributions. tg may be shared across runs; nil
// builds a fresh NewTarget(s.Seed).
func Run(s Scenario, tg *Target) *Report {
	return run(s, tg, nil)
}

// run is the shared native runner: ops go to tg's pools in-process, or —
// when rem is non-nil — over the remote transport (tg is then unused and
// may be nil; the pools live behind the wire).
func run(s Scenario, tg *Target, rem Remote) *Report {
	s = s.withDefaults()
	if tg == nil && rem == nil {
		tg = NewTarget(s.Seed)
	}
	prof := buildProfile(s.Arrival, s.Duration)

	var z *zipf
	if s.Mix.Skew > 0 {
		z = newZipf(s.Mix.Targets, s.Mix.Skew)
	}
	workers := make([]*worker, s.Workers)
	for i := range workers {
		w := &worker{id: i, gen: rng.Derived(s.Seed, uint64(i)), z: z}
		w.hists = make([]Hist, len(prof.classes))
		if s.Arrival.Kind != Closed {
			// The gap stream is split from the op-pick stream so open- and
			// closed-loop runs of one seed pick the same op sequence.
			gaps := rng.Derived(s.Seed, uint64(i)+1<<32)
			w.sc = newSched(prof, i, s.Workers, s.Arrival.Kind == Poisson, &gaps)
		}
		workers[i] = w
	}

	// The live-contention sampler: every 2ms, read the pools' in-flight
	// gauges plus the extra processes of running waves (a wave holds one
	// pool instance but runs k processes; waveExtra carries the k−1).
	// maxWaveK separately tracks the widest wave actually launched, so the
	// run-level peak cannot under-report just because every wave finished
	// between two sampler ticks.
	var waveExtra, maxWaveK atomic.Int64
	var crashes, remoteErrs, sheds atomic.Uint64
	ks := newKSampler(len(prof.classes))
	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	if tg != nil {
		// Remote runs have no local pools to sample; the server exports the
		// same gauges through its metrics endpoint instead.
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			start := time.Now()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					k := tg.Rename.InFlight() + tg.Counter.InFlight() + int(waveExtra.Load())
					ks.sample(prof.classAt(time.Since(start).Seconds()), k)
				}
			}
		}()
	}

	perWorkerBudget := uint64(0)
	if s.Ops > 0 {
		perWorkerBudget = (s.Ops + uint64(s.Workers) - 1) / uint64(s.Workers)
	}

	// Stage accounting is cumulative on the transport; snapshot before the
	// workers start so the report carries this run's delta only.
	var stages0 Stages
	stageSrc, _ := rem.(StageSource)
	if stageSrc != nil {
		stages0 = stageSrc.Stages()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			g := &gauges{waveExtra: &waveExtra, maxWaveK: &maxWaveK, crashes: &crashes, rem: rem, errs: &remoteErrs, sheds: &sheds}
			if w.sc != nil {
				runOpenLoop(&s, tg, w, start, perWorkerBudget, g)
			} else {
				runClosedLoop(&s, tg, w, prof, start, perWorkerBudget, g)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopSampler)
	samplerWG.Wait()

	r := buildReport(&s, prof, workers, elapsed, "native", "ns", crashes.Load(), ks, int(maxWaveK.Load()))
	if rem != nil {
		// Tag the rows so the bench trajectory can tell transports apart:
		// "wire" unless the transport names itself (the cluster client
		// reports "cluster").
		r.Transport = "wire"
		if n, ok := rem.(Namer); ok {
			r.Transport = n.TransportName()
		}
		r.RemoteErrs = remoteErrs.Load()
		r.Sheds = sheds.Load()
		if stageSrc != nil {
			if st := stageSrc.Stages().Sub(stages0); st.Frames > 0 {
				r.Stages = &st
			}
		}
		r.Verdict = r.check()
	}
	return r
}

// gauges bundles the run-wide shared counters the op path updates, plus
// the remote transport when the run goes over a wire.
type gauges struct {
	waveExtra *atomic.Int64
	maxWaveK  *atomic.Int64
	crashes   *atomic.Uint64
	rem       Remote
	errs      *atomic.Uint64
	sheds     *atomic.Uint64
}

// runOpenLoop issues operations at the worker's scheduled arrival times.
// Latency is measured from the *scheduled* arrival, not the actual start:
// when the server (or the generator, starved by the server) falls behind,
// the queued-behind time lands in the latency distribution instead of
// silently stretching the inter-arrival gaps — the coordinated-omission
// correction.
func runOpenLoop(s *Scenario, tg *Target, w *worker, start time.Time, budget uint64, g *gauges) {
	durNs := s.Duration.Nanoseconds()
	for budget == 0 || w.count < budget {
		tSched, class, ok := w.sc.next()
		if !ok {
			return
		}
		schedNs := int64(tSched * 1e9)
		if schedNs >= durNs {
			return
		}
		sleepUntil(start, schedNs)
		lateNs := time.Since(start).Nanoseconds() - schedNs
		kind := s.Mix.pick(&w.gen)
		key, keyed := w.target(kind)
		runOp(s, tg, kind, tSched, key, keyed, g)
		latNs := time.Since(start).Nanoseconds() - schedNs
		if latNs < 0 {
			latNs = 0
		}
		if lateNs < 0 {
			lateNs = 0
		}
		w.observe(class, uint64(latNs), uint64(lateNs))
		w.ops[kind]++
		w.count++
	}
}

// runClosedLoop issues the next operation as soon as the previous one
// completes (plus think time). Latency is pure service time; the offered
// rate self-limits to the measured throughput.
func runClosedLoop(s *Scenario, tg *Target, w *worker, prof *profile, start time.Time, budget uint64, g *gauges) {
	for budget == 0 || w.count < budget {
		off := time.Since(start)
		if off >= s.Duration {
			return
		}
		class := prof.classAt(off.Seconds())
		kind := s.Mix.pick(&w.gen)
		key, keyed := w.target(kind)
		t0 := time.Now()
		runOp(s, tg, kind, off.Seconds(), key, keyed, g)
		w.observe(class, uint64(time.Since(t0).Nanoseconds()), 0)
		w.ops[kind]++
		w.count++
		if s.Arrival.Think > 0 {
			time.Sleep(s.Arrival.Think)
		}
	}
}

// runOp executes one operation of the given kind. When keyed, the
// per-operation kinds route through the pool's keyed checkout with the
// drawn target as the shard key — Zipf-hot targets contend for the same
// shard's freelist, which is exactly the hot-spot the skew scenarios
// measure. (The shared phased counter has no per-target identity, so
// phased Inc/Read ignore the key.)
func runOp(s *Scenario, tg *Target, kind opKind, at float64, key uint64, keyed bool, g *gauges) {
	if g.rem != nil {
		runRemoteOp(s, kind, at, key, g)
		return
	}
	switch kind {
	case opRename:
		if keyed {
			tg.Rename.DoKeyed(key, doRename)
		} else {
			tg.Rename.Do(doRename)
		}
	case opInc:
		switch {
		case s.Phased:
			tg.Phased.Inc()
		case keyed:
			tg.Counter.DoKeyed(key, doInc)
		default:
			tg.Counter.Do(doInc)
		}
	case opRead:
		switch {
		case s.Phased:
			tg.Phased.Read()
		case keyed:
			tg.Counter.DoKeyed(key, doRead)
		default:
			tg.Counter.Do(doRead)
		}
	case opWave:
		k := s.kAt(at)
		for {
			cur := g.maxWaveK.Load()
			if int64(k) <= cur || g.maxWaveK.CompareAndSwap(cur, int64(k)) {
				break
			}
		}
		g.waveExtra.Add(int64(k - 1))
		if s.Phased {
			g.crashes.Add(runPhasedWave(tg.PhasedWave, k, s.Faults))
		} else {
			g.crashes.Add(runWave(tg.Rename, k, s.Faults))
		}
		g.waveExtra.Add(int64(1 - k))
	}
}

// runRemoteOp executes one operation over the remote transport. The keyed
// routing contract carries through: the drawn target rides the wire as the
// op argument and lands on the server's keyed shard checkout, so a
// Zipf-hot key contends on one shard there exactly as it would in-process.
// Unkeyed ops carry their per-op key (see worker.target), so they spread
// over shards and nodes the way in-process Do spreads over shards.
// Failures are counted (they fail the verdict); the op still lands in the
// latency distribution — a failed round trip is still a round trip the
// client waited for.
func runRemoteOp(s *Scenario, kind opKind, at float64, key uint64, g *gauges) {
	var err error
	switch kind {
	case opRename:
		_, err = g.rem.Op(wire.OpRename, key, key)
	case opInc:
		if s.Phased {
			_, err = g.rem.Op(wire.OpPhasedInc, 0, 0)
		} else {
			_, err = g.rem.Op(wire.OpInc, key, key)
		}
	case opRead:
		if s.Phased {
			_, err = g.rem.Op(wire.OpPhasedRead, 0, 0)
		} else {
			_, err = g.rem.Op(wire.OpRead, key, key)
		}
	case opWave:
		k := s.kAt(at)
		for {
			cur := g.maxWaveK.Load()
			if int64(k) <= cur || g.maxWaveK.CompareAndSwap(cur, int64(k)) {
				break
			}
		}
		_, err = g.rem.Op(wire.OpWave, 0, uint64(k))
	}
	if err != nil {
		// A shed is the server's overload control doing its job — count it
		// as a shed (it does not fail the verdict); anything else is a hard
		// remote error. Either way the op's round trip stays in the latency
		// distribution: the client waited for it.
		if IsShed(err) {
			g.sheds.Add(1)
		} else {
			g.errs.Add(1)
		}
	}
}

// runWave checks one renamer out and runs a k-process execution wave
// against it through the execution layer, with plan (if any) armed — the
// crash-storm path. Returns the number of plan crashes that fired.
func runWave(pool *serve.Pool[*core.StrongAdaptive], k int, plan *exec.FaultPlan) uint64 {
	in := pool.Get()
	defer in.Put() // also disarms the plan before the instance recycles
	ex := in.Exec(k)
	if plan != nil {
		ex.Faults(plan)
	}
	sa := in.Obj
	st := ex.Run(func(p shmem.Proc) { sa.Rename(p, uint64(p.ID())+1) })
	var fired uint64
	for _, c := range st.Crashed {
		if c {
			fired++
		}
	}
	return fired
}

// runPhasedWave checks a phased counter out and runs a k-process execution
// wave against it: every process increments across a Joined→Split→Joined
// double transition (process 0 flips the mode mid-flight) and reads, with
// plan (if any) armed — so injected crashes land between a cell add and its
// spine merge, the reconciliation window the phased design must survive.
// Returns the number of plan crashes that fired.
func runPhasedWave(pool *serve.Pool[*phase.Counter], k int, plan *exec.FaultPlan) uint64 {
	if k > phasedWaveLanes {
		k = phasedWaveLanes // instance shape bounds the wave width
	}
	in := pool.Get()
	defer in.Put()
	ex := in.Exec(k)
	if plan != nil {
		ex.Faults(plan)
	}
	c := in.Obj
	st := ex.Run(func(p shmem.Proc) {
		if p.ID() == 0 {
			c.SetMode(phase.Split)
		}
		for i := 0; i < 4; i++ {
			c.Inc(p)
		}
		c.Read(p)
		if p.ID() == 0 {
			c.SetMode(phase.Joined)
		}
		c.Inc(p)
	})
	var fired uint64
	for _, cr := range st.Crashed {
		if cr {
			fired++
		}
	}
	return fired
}

// sleepUntil sleeps until offset ns after start: a coarse time.Sleep for
// everything beyond a millisecond (timer-granularity oversleep would
// otherwise dominate the measured latency at sub-millisecond gaps), then a
// cooperative yield spin for the last stretch — the generator trades CPU
// for schedule fidelity, as load drivers do.
func sleepUntil(start time.Time, ns int64) {
	for {
		d := ns - time.Since(start).Nanoseconds()
		if d <= 0 {
			return
		}
		if d > 1_000_000 {
			time.Sleep(time.Duration(d-1_000_000) * time.Nanosecond)
		} else {
			runtime.Gosched()
		}
	}
}

// kSampler accumulates the sampled live-contention gauge per phase class.
// Only the sampler goroutine writes it; readers wait for that goroutine to
// stop.
type kSampler struct {
	max  []int
	sum  []int64
	cnt  []int64
	peak int
}

func newKSampler(classes int) *kSampler {
	return &kSampler{max: make([]int, classes), sum: make([]int64, classes), cnt: make([]int64, classes)}
}

func (ks *kSampler) sample(class, k int) {
	if k > ks.max[class] {
		ks.max[class] = k
	}
	if k > ks.peak {
		ks.peak = k
	}
	ks.sum[class] += int64(k)
	ks.cnt[class]++
}

func (ks *kSampler) mean(class int) float64 {
	if ks.cnt[class] == 0 {
		return 0
	}
	return float64(ks.sum[class]) / float64(ks.cnt[class])
}

// buildReport merges the worker shards into the final Report. Shared by
// the native and simulator runners. waveKMax is the widest wave actually
// launched: the run-level KPeak floor (the passive sampler can miss waves
// that finish between ticks).
func buildReport(s *Scenario, prof *profile, workers []*worker, elapsed time.Duration, runtimeName, unit string, crashes uint64, ks *kSampler, waveKMax int) *Report {
	merged := make([]Hist, len(prof.classes))
	var total Hist
	var late Hist
	byKind := map[string]uint64{}
	var ops uint64
	for _, w := range workers {
		for c := range merged {
			merged[c].Merge(&w.hists[c])
			total.Merge(&w.hists[c])
		}
		late.Merge(&w.late)
		for k, n := range w.ops {
			byKind[opNames[k]] += n
		}
		ops += w.count
	}

	// Rates are computed over the window actually run: an op budget can
	// end the run before the configured duration, and diluting a phase's
	// rate by time never run would contradict the top-level ops/elapsed.
	effSecs := prof.total
	if runtimeName == "native" && elapsed.Seconds() < effSecs {
		effSecs = elapsed.Seconds()
	}
	offeredOps, classSecs := prof.offered(effSecs)
	r := &Report{
		Scenario:    s.Name,
		Runtime:     runtimeName,
		Seed:        s.Seed,
		Workers:     s.Workers,
		Arrival:     s.Arrival.Kind.String(),
		Unit:        unit,
		DurationSec: s.Duration.Seconds(),
		ElapsedSec:  elapsed.Seconds(),
		Ops:         ops,
		OpsByKind:   byKind,
		Crashes:     crashes,
	}
	if s.Faults != nil {
		r.FaultProcs = s.Faults.Crashes()
	}
	wallClock := runtimeName == "native"
	var offeredTotal float64
	for c, name := range prof.classes {
		h := &merged[c]
		ph := PhaseReport{
			Phase: name,
			Ops:   h.Count(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
			P999:  h.Quantile(0.999),
			Max:   h.Max(),
			Mean:  h.Mean(),
		}
		if s.Arrival.Kind != Closed && wallClock && classSecs[c] > 0 {
			ph.OfferedOpsSec = offeredOps[c] / classSecs[c]
			offeredTotal += offeredOps[c]
		}
		if wallClock && classSecs[c] > 0 {
			ph.AchievedOpsSec = float64(h.Count()) / classSecs[c]
		}
		if ks != nil {
			ph.KPeak = ks.max[c]
			ph.KMean = ks.mean(c)
		}
		r.Phases = append(r.Phases, ph)
	}
	r.Total = PhaseReport{
		Phase: "total",
		Ops:   total.Count(),
		P50:   total.Quantile(0.50),
		P90:   total.Quantile(0.90),
		P99:   total.Quantile(0.99),
		P999:  total.Quantile(0.999),
		Max:   total.Max(),
		Mean:  total.Mean(),
	}
	if late.Count() > 0 {
		r.Total.MaxLateNs = late.Max()
		// Attribute the worst lateness to the run, not per phase: lateness
		// shards are per worker, not per phase, to keep worker state small.
	}
	if wallClock {
		if s.Arrival.Kind != Closed && effSecs > 0 {
			r.OfferedOpsSec = offeredTotal / effSecs
		}
		if elapsed > 0 {
			r.AchievedOpsSec = float64(ops) / elapsed.Seconds()
			r.Total.AchievedOpsSec = r.AchievedOpsSec
		}
	}
	if ks != nil {
		r.KPeak = ks.peak
	}
	if waveKMax > r.KPeak {
		r.KPeak = waveKMax
	}
	r.finish()
	return r
}
