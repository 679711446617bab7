package sim

import "repro/internal/rng"

// RoundRobin schedules ready processes cyclically, granting each a burst of
// Burst consecutive steps (≤ 1 means the classic one-step-at-a-time fair
// schedule). It is the "fair" reference schedule: every process advances at
// the same rate.
type RoundRobin struct {
	// Burst is the number of consecutive steps granted per turn.
	Burst  int
	cursor int
}

// NewRoundRobin returns a fair cyclic adversary (one step per turn).
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// NewRoundRobinBurst returns a fair cyclic adversary that grants each ready
// process burst consecutive steps per turn. The schedule it produces is
// identical to re-choosing the same process burst times in a row, but the
// steps inside a burst run without re-entering the scheduler.
func NewRoundRobinBurst(burst int) *RoundRobin {
	if burst < 1 {
		burst = 1
	}
	return &RoundRobin{Burst: burst}
}

// Rewind rearms the schedule in place for another run, identical to a fresh
// NewRoundRobin/NewRoundRobinBurst with the same Burst. Schedules carry
// state, so a reused runtime (sim.WithReuse) needs either a fresh adversary
// or an in-place rewind per run; the rewind is what keeps sweep arenas
// allocation-free.
func (a *RoundRobin) Rewind() { a.cursor = 0 }

// Choose picks the next ready process at or after the cursor.
func (a *RoundRobin) Choose(v *View) Decision {
	k := len(v.Ready)
	for i := 0; i < k; i++ {
		p := (a.cursor + i) % k
		if v.Ready[p] {
			a.cursor = p + 1
			return Decision{Proc: p, Burst: a.Burst}
		}
	}
	panic("sim: RoundRobin called with no ready process")
}

// NeverCrashes marks the schedule for the single-ready fast path.
func (*RoundRobin) NeverCrashes() {}

// Random schedules a uniformly random ready process. Deterministic given its
// seed; models an arbitrary (non-adaptive) interleaving.
type Random struct {
	rng *rng.SplitMix64
}

// NewRandom returns a seeded uniform adversary.
func NewRandom(seed uint64) *Random {
	return &Random{rng: rng.New(seed)}
}

// Reseed rearms the schedule in place, identical to a fresh NewRandom(seed)
// (see RoundRobin.Rewind for why in-place rearm exists).
func (a *Random) Reseed(seed uint64) {
	if a.rng == nil {
		a.rng = rng.New(seed)
		return
	}
	*a.rng = rng.NewState(seed)
}

// Choose samples uniformly among ready processes. The selection is
// bit-identical to scanning Ready for the idx-th set entry; the ready
// bitmap just finds it with popcount arithmetic.
func (a *Random) Choose(v *View) Decision {
	k := len(v.Ready)
	if v.NumReady > k/4 {
		// Rejection sampling is O(1) expected under high contention.
		for {
			p := a.rng.Intn(k)
			if v.Ready[p] {
				return Decision{Proc: p}
			}
		}
	}
	return Decision{Proc: v.nthReady(a.rng.Intn(v.NumReady))}
}

// NeverCrashes marks the schedule for the single-ready fast path.
func (*Random) NeverCrashes() {}

// Sequential runs the lowest-numbered ready process until it finishes, then
// the next. It produces fully serialized executions — the schedule under
// which adaptive algorithms see contention arrive one process at a time.
//
// It is implemented on bursts: choosing the lowest ready process again after
// every single step always re-picks the same process, so each choice grants
// MaxBurst and the process runs to completion without re-entering the
// scheduler. The schedule (and trace) is unchanged.
type Sequential struct{}

// NewSequential returns the serializing adversary.
func NewSequential() *Sequential { return &Sequential{} }

// Choose picks the lowest-numbered ready process and runs it to completion.
func (Sequential) Choose(v *View) Decision {
	for p, ok := range v.Ready {
		if ok {
			return Decision{Proc: p, Burst: MaxBurst}
		}
	}
	panic("sim: Sequential called with no ready process")
}

// NeverCrashes marks the schedule for the single-ready fast path.
func (Sequential) NeverCrashes() {}

// AntiCoin is a strong-adversary heuristic: it preferentially schedules the
// ready process whose most recent coin flip was 0, starving processes whose
// coins currently favor them. It exercises the "adversary knows the coin
// flips" clause of the model and is used in stress tests to hunt for
// coin-race bugs in the test-and-set protocols.
type AntiCoin struct {
	rng *rng.SplitMix64
	// zeros is reusable scratch for Choose, so a long-lived AntiCoin (sweep
	// arenas rearm one per execution) decides allocation-free after warmup.
	zeros []int
}

// NewAntiCoin returns a seeded coin-hostile adversary.
func NewAntiCoin(seed uint64) *AntiCoin {
	return &AntiCoin{rng: rng.New(seed)}
}

// Reseed rearms the schedule in place, identical to a fresh NewAntiCoin(seed).
func (a *AntiCoin) Reseed(seed uint64) {
	if a.rng == nil {
		a.rng = rng.New(seed)
		return
	}
	*a.rng = rng.NewState(seed)
}

// Choose prefers ready processes whose last coin was 0; ties and the empty
// preference set fall back to a seeded uniform choice.
func (a *AntiCoin) Choose(v *View) Decision {
	zeros := a.zeros[:0]
	for p, ok := range v.Ready {
		if ok && v.LastCoin[p] == 0 {
			zeros = append(zeros, p)
		}
	}
	a.zeros = zeros
	if len(zeros) > 0 {
		return Decision{Proc: zeros[a.rng.Intn(len(zeros))]}
	}
	for {
		p := a.rng.Intn(len(v.Ready))
		if v.Ready[p] {
			return Decision{Proc: p}
		}
	}
}

// NeverCrashes marks the schedule for the single-ready fast path.
func (*AntiCoin) NeverCrashes() {}

// Laggard keeps one victim process maximally behind: it schedules everyone
// else first and lets the victim move only when it is the sole ready
// process. Combined with crash injection it reproduces the worst cases of
// the adaptive analyses (a process that arrives "late" into a mostly-full
// namespace).
type Laggard struct {
	Victim int
	inner  RoundRobin
}

// NewLaggard returns an adversary that starves victim.
func NewLaggard(victim int) *Laggard { return &Laggard{Victim: victim} }

// Rewind rearms the schedule in place, identical to a fresh
// NewLaggard(Victim).
func (a *Laggard) Rewind() { a.inner.cursor = 0 }

// Choose schedules any non-victim ready process round-robin; the victim runs
// only when alone.
func (a *Laggard) Choose(v *View) Decision {
	if v.NumReady == 1 && v.Ready[a.Victim] {
		return Decision{Proc: a.Victim}
	}
	k := len(v.Ready)
	for i := 0; i < k; i++ {
		p := (a.inner.cursor + i) % k
		if v.Ready[p] && p != a.Victim {
			a.inner.cursor = p + 1
			return Decision{Proc: p}
		}
	}
	return Decision{Proc: a.Victim}
}

// NeverCrashes marks the schedule for the single-ready fast path.
func (*Laggard) NeverCrashes() {}

// Replay drives the schedule from an explicit list of process indices: at
// each step it schedules Script[i] if ready, otherwise the lowest-numbered
// ready process; after the script is exhausted it falls back to round
// robin. Enumerating scripts yields exhaustive bounded model checking of
// small protocols (see the TwoProc and splitter test suites).
type Replay struct {
	Script []int
	pos    int
	rr     RoundRobin
}

// NewReplay returns a scripted adversary.
func NewReplay(script []int) *Replay { return &Replay{Script: script} }

// Choose follows the script, then falls back to round robin.
func (a *Replay) Choose(v *View) Decision {
	for a.pos < len(a.Script) {
		p := a.Script[a.pos]
		a.pos++
		if p >= 0 && p < len(v.Ready) && v.Ready[p] {
			return Decision{Proc: p}
		}
		// Scripted process not ready: substitute the lowest ready one so
		// the script length still bounds the exploration depth.
		for q, ok := range v.Ready {
			if ok {
				return Decision{Proc: q}
			}
		}
	}
	return a.rr.Choose(v)
}

// NeverCrashes marks the schedule for the single-ready fast path.
func (*Replay) NeverCrashes() {}

// Oscillator alternates bursts: it runs one process for Burst consecutive
// steps, then switches to the next ready process. Burstiness exposes
// protocols that implicitly assume interleaved progress.
//
// It is implemented on burst grants: Choose rotates to the next ready
// process and grants the whole burst at once, so the scheduler is entered
// once per burst instead of once per step. The schedule is identical to the
// step-at-a-time implementation: a process loses its turn early only by
// finishing, which ends a granted burst early too.
type Oscillator struct {
	Burst   int
	current int
}

// NewOscillator returns a bursty adversary with the given burst length.
func NewOscillator(burst int) *Oscillator {
	if burst < 1 {
		burst = 1
	}
	return &Oscillator{Burst: burst}
}

// Rewind rearms the schedule in place, identical to a fresh
// NewOscillator with the same Burst.
func (a *Oscillator) Rewind() { a.current = 0 }

// Choose rotates to the next ready process and grants it a full burst.
func (a *Oscillator) Choose(v *View) Decision {
	k := len(v.Ready)
	for i := 1; i <= k; i++ {
		p := (a.current + i) % k
		if v.Ready[p] {
			a.current = p
			return Decision{Proc: p, Burst: a.Burst}
		}
	}
	panic("sim: Oscillator called with no ready process")
}

// NeverCrashes marks the schedule for the single-ready fast path.
func (*Oscillator) NeverCrashes() {}

// CrashPlan wraps an adversary and crashes selected processes: a planned
// process crashes the first time it is chosen having completed at least its
// planned number of its own steps (View.Steps). A process's own step count
// is the one clock every runtime shares, so a plan means the same wherever
// it is armed: directly on a simulator, in a sweep arena, through an
// exec.FaultPlan, and on the native runtime, whose step hook asks Due
// before every step. It is the repository's only crash injector.
//
// Burst grants from the inner adversary are expanded into one decision per
// step, so the plan is checked at every step boundary, exactly as against a
// step-at-a-time schedule; crash runs trade the burst speedup for faithful
// crash timing. It deliberately does not implement NonCrashing: the
// scheduler must keep consulting it even when a single process remains, so
// planned crashes still fire.
type CrashPlan struct {
	inner Adversary
	// at[p] is the completed-step count at which process p crashes; done[p]
	// reports that p has no crash left to fire (none planned, or it fired).
	at   []uint64
	done []bool
	cur  int // process of the inner burst being expanded
	left int // remaining steps of that burst
}

// NewCrashPlan wraps inner with scheduled crashes: at maps a process to the
// number of its own completed steps after which its next scheduling becomes
// a crash (0 crashes it before its first step).
func NewCrashPlan(inner Adversary, at map[int]uint64) *CrashPlan {
	k := 0
	for p := range at {
		k = max(k, p+1)
	}
	a := &CrashPlan{}
	a.Rearm(inner, k)
	for p, step := range at {
		a.CrashAt(p, step)
	}
	return a
}

// Rearm resets the plan in place for a run of k processes over inner, with
// no crash planned. It reuses the plan's slices, so once they have grown to
// k a rearm allocates nothing.
func (a *CrashPlan) Rearm(inner Adversary, k int) {
	a.inner = inner
	a.cur, a.left = 0, 0
	if cap(a.at) < k {
		a.at, a.done = make([]uint64, k), make([]bool, k)
	}
	a.at, a.done = a.at[:k], a.done[:k]
	for p := range a.done {
		a.done[p] = true
	}
}

// CrashAt plans process p to crash once it has completed step steps. A later
// entry for the same process replaces the earlier one; entries for
// processes outside the armed range never fire.
func (a *CrashPlan) CrashAt(p int, step uint64) {
	if p >= 0 && p < len(a.at) {
		a.at[p], a.done[p] = step, false
	}
}

// Due reports, once, that process p, having completed steps steps, must
// crash instead of taking its next step. Distinct processes may call it
// concurrently, as the native step hook does: each touches only its own
// entry.
func (a *CrashPlan) Due(p int, steps uint64) bool {
	if p >= len(a.done) || a.done[p] || steps < a.at[p] {
		return false
	}
	a.done[p] = true
	return true
}

// Choose delegates to the inner adversary, expanding bursts, and converts
// due steps into crashes.
func (a *CrashPlan) Choose(v *View) Decision {
	var d Decision
	if a.left > 0 && v.Ready[a.cur] {
		a.left--
		d.Proc = a.cur
	} else {
		a.left = 0 // burst ended (exhausted, or the process finished or crashed)
		d = a.inner.Choose(v)
		if d.Burst > 1 {
			a.cur, a.left = d.Proc, d.Burst-1
			d.Burst = 0
		}
	}
	if a.Due(d.Proc, v.Steps[d.Proc]) {
		d.Crash, d.Burst = true, 0
		a.left = 0 // the crash consumes the rest of the expanded burst
	}
	return d
}
