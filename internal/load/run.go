package load

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/internal/wire"
)

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
	if tg == nil {
		tg = NewTarget(s.Seed)
	}
	return run(s, tg)
}

// run is the shared native runner. Every op goes to rem: a Target runs
// it in process, a wire or cluster client across the network.
func run(s Scenario, rem Remote) *Report {
	s = s.withDefaults()
	tg, local := rem.(*Target)
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
	if local {
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
					k := tg.Rename.InFlight() + tg.Wave.InFlight() + tg.Phased.InFlight() + int(waveExtra.Load())
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
			g := &gauges{waveExtra: &waveExtra, maxWaveK: &maxWaveK, crashes: &crashes, rem: rem, tg: tg, errs: &remoteErrs, sheds: &sheds}
			if w.sc != nil {
				runOpenLoop(&s, w, start, perWorkerBudget, g)
			} else {
				runClosedLoop(&s, w, prof, start, perWorkerBudget, g)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopSampler)
	samplerWG.Wait()

	r := buildReport(&s, prof, workers, elapsed, "native", "ns", crashes.Load(), ks, int(maxWaveK.Load()))
	if !local {
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
// the transport every op goes to (tg is that transport when the run is in
// process, nil otherwise).
type gauges struct {
	waveExtra *atomic.Int64
	maxWaveK  *atomic.Int64
	crashes   *atomic.Uint64
	rem       Remote
	tg        *Target
	errs      *atomic.Uint64
	sheds     *atomic.Uint64
}

// runOpenLoop issues operations at the worker's scheduled arrival times.
// Latency is measured from the *scheduled* arrival, not the actual start:
// when the server (or the generator, starved by the server) falls behind,
// the queued-behind time lands in the latency distribution instead of
// silently stretching the inter-arrival gaps — the coordinated-omission
// correction.
func runOpenLoop(s *Scenario, w *worker, start time.Time, budget uint64, g *gauges) {
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
		key, _ := w.target(kind)
		runOp(s, kind, tSched, key, g)
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
func runClosedLoop(s *Scenario, w *worker, prof *profile, start time.Time, budget uint64, g *gauges) {
	for budget == 0 || w.count < budget {
		off := time.Since(start)
		if off >= s.Duration {
			return
		}
		class := prof.classAt(off.Seconds())
		kind := s.Mix.pick(&w.gen)
		key, _ := w.target(kind)
		t0 := time.Now()
		runOp(s, kind, off.Seconds(), key, g)
		w.observe(class, uint64(time.Since(t0).Nanoseconds()), 0)
		w.ops[kind]++
		w.count++
		if s.Arrival.Think > 0 {
			time.Sleep(s.Arrival.Think)
		}
	}
}

// runOp executes one operation of the given kind: the one place an op
// kind maps to its wire op code, routing key and argument. A rename
// carries its key (see worker.target) both as the routing key and as the
// shard argument, so a Zipf-hot key contends on one shard, in process or
// on the server that owns it. Inc and Read go to the shared phased
// counter, which has no per-target identity, so they carry key 0.
//
// Only in-process waves take their own branch: they arm the scenario's
// FaultPlan and count its crashes, and plans do not travel over the wire.
// The wire has no phased-wave op, so a remote phased wave sends nothing
// and counts as a failed remote op.
//
// Failures are counted (they fail the verdict); the op still lands in the
// latency distribution — a failed round trip is still a round trip the
// client waited for.
func runOp(s *Scenario, kind opKind, at float64, key uint64, g *gauges) {
	var code wire.OpCode
	arg := key
	switch kind {
	case opRename:
		code = wire.OpRename
	case opInc:
		code, key, arg = wire.OpPhasedInc, 0, 0
	case opRead:
		code, key, arg = wire.OpPhasedRead, 0, 0
	case opWave:
		k := s.kAt(at)
		if g.tg == nil && s.Phased {
			g.errs.Add(1)
			return
		}
		for {
			cur := g.maxWaveK.Load()
			if int64(k) <= cur || g.maxWaveK.CompareAndSwap(cur, int64(k)) {
				break
			}
		}
		if g.tg != nil {
			g.waveExtra.Add(int64(k - 1))
			if s.Phased {
				g.crashes.Add(g.tg.runPhasedWave(k, s.Faults))
			} else {
				g.crashes.Add(g.tg.runWave(k, s.Faults))
			}
			g.waveExtra.Add(int64(1 - k))
			return
		}
		code, key, arg = wire.OpWave, 0, uint64(k)
	}
	if _, err := g.rem.Op(code, key, arg); err != nil {
		// A shed is the server's overload control doing its job — count it
		// as a shed (it does not fail the verdict); anything else is a hard
		// remote error.
		if IsShed(err) {
			g.sheds.Add(1)
		} else {
			g.errs.Add(1)
		}
	}
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
