package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shmem"
)

// Options configures a sweep.
type Options struct {
	// Workers is the worker count (≤ 0: GOMAXPROCS).
	Workers int
	// Budget caps total executions. Grid mode: only the first Budget task
	// indices run (0 = the whole grid). Search mode: the per-chain
	// iteration count is reduced so chains×iters ≤ Budget.
	Budget int
	// StepCap bounds each execution (0 = 1<<22); capped runs are counted
	// as CapHits, not violations.
	StepCap uint64
	// SearchIters, when positive, switches to search mode: per object,
	// Chains annealing chains of SearchIters executions each, over
	// adversary decision seeds and crash-plan positions.
	SearchIters int
	// Chains is the search-mode chain count per object (0 = 4).
	Chains int
	// NoHarvest skips re-recording worst cases and violations through the
	// execution layer (benchmarks measure the engine alone).
	NoHarvest bool
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.StepCap == 0 {
		o.StepCap = 1 << 22
	}
	if o.Chains <= 0 {
		o.Chains = 4
	}
	return o
}

// Sweep is a configured engine run; New validates, Run executes.
type Sweep struct {
	space *Space
	opts  Options
}

// New returns a sweep over space.
func New(space *Space, opts Options) (*Sweep, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	return &Sweep{space: space, opts: opts.withDefaults()}, nil
}

// engine is the shared state of one Run: the deques, the outstanding-task
// count, and the resolved mode.
type engine struct {
	sp        *Space
	opts      Options
	deques    []*deque
	remaining atomic.Int64
	// search mode (0 = grid): iterations per chain and chains per object.
	iters  int
	chains int
}

// worker is one stealing goroutine: a long-lived arena plus per-object
// accumulators. Workers share nothing but the deques and the remaining
// counter; results meet only in the final merge.
type worker struct {
	id    int
	eng   *engine
	arena *arena
	dq    *deque
	accs  []objAcc
}

// Run executes the sweep and returns the aggregate report.
func (s *Sweep) Run() *Report {
	sp, opts := s.space, s.opts
	e := &engine{sp: sp, opts: opts}

	mode := "grid"
	n := sp.Tasks()
	if opts.SearchIters > 0 {
		mode = "search"
		e.chains = opts.Chains
		e.iters = opts.SearchIters
		n = len(sp.Objects) * e.chains
		if opts.Budget > 0 && n*e.iters > opts.Budget {
			e.iters = opts.Budget / n
			if e.iters < 1 {
				e.iters = 1
			}
		}
	} else if opts.Budget > 0 && opts.Budget < n {
		n = opts.Budget
	}

	workers := opts.Workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	// Block-partition the task indices into per-worker deques before any
	// worker starts: consecutive indices share an object (objects vary
	// outermost in the task encoding), so each arena's slots stay hot, and
	// pre-seeding keeps the deque buffers append-free while thieves run.
	e.deques = make([]*deque, workers)
	ws := make([]*worker, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		dq := newDeque(hi - lo + 1)
		// Push in reverse: the owner pops the bottom, so it consumes its
		// block in ascending task order while thieves steal from the back.
		for t := hi - 1; t >= lo; t-- {
			dq.push(int32(t))
		}
		e.deques[w] = dq
		ws[w] = &worker{
			id:    w,
			eng:   e,
			arena: newArena(sp.Objects, opts.StepCap),
			dq:    dq,
			accs:  make([]objAcc, len(sp.Objects)),
		}
	}
	e.remaining.Store(int64(n))

	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer w.arena.close()
			w.loop()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge per-worker accumulators in worker order. Every objAcc
	// operation is commutative and associative, so any order gives the
	// same result; worker order just makes it obvious.
	merged := make([]objAcc, len(sp.Objects))
	for _, w := range ws {
		for i := range merged {
			merged[i].merge(&w.accs[i])
		}
	}

	return s.report(mode, workers, n, merged, elapsed)
}

// loop drains the worker's own deque, then steals; it exits when every
// task in the system is done.
func (w *worker) loop() {
	e := w.eng
	for {
		t, ok := w.dq.pop()
		if !ok {
			t, ok = w.steal()
		}
		if !ok {
			if e.remaining.Load() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		if e.iters > 0 {
			w.runChain(int(t))
		} else {
			w.runTask(int(t))
		}
		e.remaining.Add(-1)
	}
}

// steal scans the other deques round-robin from the worker's successor.
func (w *worker) steal() (int32, bool) {
	dqs := w.eng.deques
	for i := 1; i < len(dqs); i++ {
		if t, ok := dqs[(w.id+i)%len(dqs)].steal(); ok {
			return t, true
		}
	}
	return 0, false
}

// runTask executes one grid task: decode, rearm the arena, run, evaluate,
// accumulate. Steady state allocates nothing.
func (w *worker) runTask(t int) {
	sp := w.eng.sp
	obj, ai, pi, si := sp.Decode(t)
	sl := w.arena.slot(sp.Objects, obj)
	k := sl.spec.K
	seed := sp.Seeds[si]

	plan := sp.Plans[pi]
	adv := w.arena.crashes(w.arena.advs.arm(sp.Advs[ai], seed, k), plan.At, k)
	st := sl.run(seed, adv)
	ref := runRef{
		steps:   st.MaxSteps(),
		task:    int32(t),
		seed:    seed,
		advIdx:  int32(ai),
		advSeed: seed,
		planIdx: int32(pi),
		nPlan:   int32(len(plan.At)),
	}
	copy(ref.plan[:], plan.At)
	w.accs[obj].add(ref, st, sl.names[:k], evaluate(sl, st))
}

// evaluate classifies one finished execution against the object's
// validity condition, allocation-free.
func evaluate(sl *slot, st *shmem.Stats) violKind {
	switch sl.spec.Kind {
	case KindCounter:
		if sl.bad > 0 {
			return violCounter
		}
		return violNone
	case KindBitBatching:
		return checkNames(sl.names[:sl.spec.K], st.Crashed, sl.spec.N, false)
	default:
		return checkNames(sl.names[:sl.spec.K], st.Crashed, sl.spec.K, true)
	}
}

// checkNames verifies surviving processes hold distinct names in
// [1..bound]; when tight and crash-free, exactly {1..k}. A crashed
// process's slot holds 0 (it never finished) and is skipped. Uses a
// bitmask, so bound ≤ 64 (enforced by ObjectSpec.validate).
func checkNames(names []uint64, crashed []bool, bound int, tight bool) violKind {
	var mask uint64
	finished := 0
	for i := range names {
		if crashed[i] {
			continue
		}
		nm := names[i]
		if nm < 1 || nm > uint64(bound) {
			return violOutOfRange
		}
		b := uint64(1) << (nm - 1)
		if mask&b != 0 {
			return violDuplicate
		}
		mask |= b
		finished++
	}
	if tight && finished == len(names) && mask != (uint64(1)<<finished)-1 {
		return violNotTight
	}
	return violNone
}

// report renders the merged accumulators, harvesting worst cases and
// violations unless disabled.
func (s *Sweep) report(mode string, workers, tasks int, merged []objAcc, elapsed time.Duration) *Report {
	sp := s.space
	rep := &Report{
		Schema:  "sweep/v1",
		Mode:    mode,
		Workers: workers,
		Tasks:   tasks,
	}
	for i := range merged {
		a := &merged[i]
		rep.Executions += a.execs
		rep.Violations += a.violations
		or := ObjectReport{
			Object:     sp.Objects[i].Name,
			K:          sp.Objects[i].K,
			Executions: a.execs,
			Crashes:    a.crashes,
			CapHits:    a.capHits,
			Violations: a.violations,
			TotalSteps: a.totalSteps,
			Coins:      a.coins,
			Checksum:   fmt.Sprintf("%016x", a.checksum),
		}
		if a.execs > 0 {
			or.MeanSteps = float64(a.totalSteps) / float64(a.execs)
		}
		if a.hasWorst {
			or.Worst = s.renderRef(a.worst)
		}
		if a.hasViol {
			v := s.renderRef(a.viol)
			or.FirstViolation = &v
			or.ViolationKind = a.violKind.String()
		}
		rep.Objects = append(rep.Objects, or)
	}

	harvestOK := true
	if !s.opts.NoHarvest {
		for i := range merged {
			a := &merged[i]
			if a.hasWorst && a.execs > 0 {
				h := s.harvestRef(i, a.worst, "worst")
				rep.Harvests = append(rep.Harvests, h)
				if h.CheckErr != "" || !h.SourceMatch || !h.ReplayIdentical {
					harvestOK = false
				}
			}
			if a.hasViol && a.viol != a.worst {
				h := s.harvestRef(i, a.viol, "violation")
				rep.Harvests = append(rep.Harvests, h)
				// A violation harvest is expected to fail its checker; it
				// must still re-record and replay faithfully.
				if !h.SourceMatch || !h.ReplayIdentical {
					harvestOK = false
				}
			}
		}
	}

	switch {
	case rep.Violations > 0:
		rep.Verdict = "violation"
	case !harvestOK:
		rep.Verdict = "harvest-mismatch"
	default:
		rep.Verdict = "ok"
	}
	rep.ElapsedSec = elapsed.Seconds()
	if elapsed > 0 {
		rep.ExecPerSec = float64(rep.Executions) / elapsed.Seconds()
	}
	return rep
}

// renderRef formats a runRef for the report.
func (s *Sweep) renderRef(r runRef) RunRef {
	out := RunRef{
		Task:  int(r.task),
		Iter:  int(r.iter),
		Seed:  r.seed,
		Steps: r.steps,
	}
	if r.advIdx >= 0 {
		out.Adv = s.space.Advs[r.advIdx].Name
	} else {
		out.Adv = fmt.Sprintf("random@%#x", r.advSeed)
	}
	if r.planIdx >= 0 {
		out.Plan = s.space.Plans[r.planIdx].String()
	} else {
		out.Plan = PlanSpec{At: r.plan[:r.nPlan]}.String()
	}
	return out
}
