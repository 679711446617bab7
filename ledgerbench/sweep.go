package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/sweep"
)

const (
	// sweepWarmup is the fixed warm-up of one sweep set-up, in jobs.
	sweepWarmup = 16
	// sweepWorkers runs the measured jobs and the ledger (see the package
	// doc, CPUs, for why one); refWorkers runs the references they are
	// checked against, so the check also covers the engine's determinism
	// across worker counts.
	sweepWorkers = 1
	refWorkers   = 2
)

// sweepJob is one entry of the seeded job list: a space over every catalog
// object, the default adversaries and crash plans, and one short seed range.
type sweepJob struct {
	space *sweep.Space
	// ref is the job's Stable() report from a run with refWorkers; every
	// later run of the job must reproduce it bit for bit.
	ref   []byte
	refOK bool
}

// sweepJobs builds the job list and its references on first use.
func (in *inputs) sweepJobs() []*sweepJob {
	if in.sweep != nil {
		return in.sweep
	}
	for _, first := range in.firstSeeds {
		j := &sweepJob{space: &sweep.Space{
			Objects: sweep.Objects(),
			Advs:    sweep.DefaultAdvs(),
			Plans:   sweep.DefaultPlans(),
			Seeds:   sweep.SeedRange(first, sweepSeeds),
		}}
		if rep, err := runSweep(j, refWorkers, false); err == nil && rep.OK() {
			j.ref, j.refOK = rep.Stable().JSON(), true
		}
		in.sweep = append(in.sweep, j)
	}
	return in.sweep
}

func runSweep(j *sweepJob, workers int, noHarvest bool) (*sweep.Report, error) {
	sw, err := sweep.New(j.space, sweep.Options{Workers: workers, NoHarvest: noHarvest})
	if err != nil {
		return nil, err
	}
	return sw.Run(), nil
}

// check accounts one job's report: all of its executions fail unless the
// verdict is ok and the report matches the reference.
func (j *sweepJob) check(w *window, rep *sweep.Report, err error) {
	tasks := int64(j.space.Tasks())
	w.attempted += tasks
	if err != nil || !rep.OK() || !j.refOK || !bytes.Equal(rep.Stable().JSON(), j.ref) {
		w.failed += tasks
	}
}

// sweepJobRun runs job n of the list as one request.
func sweepJobRun(w *window, jobs []*sweepJob, n int, tr *tracer) {
	j := jobs[n%len(jobs)]
	t0 := time.Now()
	sw, err := sweep.New(j.space, sweep.Options{Workers: sweepWorkers})
	t1 := time.Now()
	var rep *sweep.Report
	if err == nil {
		rep = sw.Run()
	}
	t2 := time.Now()
	w.lat = append(w.lat, t2.Sub(t0))
	w.requests++
	w.tick(t2)
	if tr != nil {
		id := tr.reserve()
		tr.record(0, uint64(n), id, "sweep.new", t0, t1)
		tr.record(0, uint64(n), id, "sweep.run", t1, t2)
		tr.record(id, uint64(n), 0, "request", t0, t2)
	}
	if rep != nil {
		w.ops += int64(rep.Executions)
	}
	j.check(w, rep, err)
}

func measureSweep(in *inputs, d time.Duration, tr *tracer) (*window, error) {
	jobs := in.sweepJobs()
	w := newWindow()
	// A sweep has no servers to start: its set-up is the fixed warm-up
	// (arena and blueprint caches, the scheduler's first jobs). Jobs differ
	// in cost, so each round warms up on the next sweepWarmup jobs of the
	// list, and the rounds' median does not hang on the seed's first few.
	for r := 0; r < setupRounds; r++ {
		warm := &window{}
		t0 := time.Now()
		for n := 0; n < sweepWarmup; n++ {
			sweepJobRun(warm, jobs, r*sweepWarmup+n, nil)
		}
		w.setups = append(w.setups, time.Since(t0))
		w.merge(warm)
	}

	runtime.GC()
	gc0 := readGC()
	ops0 := w.ops
	start := time.Now()
	w.sliceLen = d / timeSlices
	w.begin(start)
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		sweepJobRun(w, jobs, n, tr)
	}
	end := time.Now()
	w.finish(end)
	w.elapsed = end.Sub(start)
	if tr != nil {
		w.layers = readGC().since(gc0, w.ops-ops0)
	}
	return w, nil
}

// sweepStack replays the job list through the engine with and without
// harvesting: the simulator's cost per step, the algorithms' exact step and
// crash counts, and the harvest's cost per job.
func sweepStack(in *inputs, run *ledgerRun) (*stack, error) {
	jobs := in.sweepJobs()
	var noH, withH time.Duration
	var mNoH, mWithH uint64
	var steps, execs, crashes uint64
	for _, j := range jobs {
		for _, noHarvest := range []bool{true, false} {
			m0 := mallocs()
			t0 := time.Now()
			rep, err := runSweep(j, sweepWorkers, noHarvest)
			el := time.Since(t0)
			m1 := mallocs()
			if noHarvest {
				noH += el
				mNoH += m1 - m0
				tasks := int64(j.space.Tasks())
				run.acct.attempted += tasks
				if err != nil || !rep.OK() {
					run.acct.failed += tasks
					continue
				}
				execs += rep.Executions
				for _, o := range rep.Objects {
					steps += o.TotalSteps
					crashes += o.Crashes
				}
			} else {
				withH += el
				mWithH += m1 - m0
				j.check(run.acct, rep, err)
			}
		}
	}
	if execs == 0 || steps == 0 {
		return nil, fmt.Errorf("no executions completed")
	}
	fe := float64(execs)
	st := &stack{
		name: "sweep",
		unit: "exec",
		rows: []row{
			{name: "sweep.run NoHarvest (sim + algorithms)", ns: float64(noH) / fe, allocs: float64(mNoH) / fe, delta: float64(noH) / fe},
			{name: "sweep.harvest", ns: float64(withH) / fe, allocs: float64(mWithH) / fe, delta: float64(withH-noH) / fe},
		},
		metrics: map[string]metric{
			"sim.ns_per_step":       {float64(noH) / float64(steps), "ns"},
			"core.steps_per_exec":   {float64(steps) / fe, "steps"},
			"exec.crashes_per_exec": {float64(crashes) / fe, "count"},
			"sweep.harvest_us":      {us(withH-noH) / float64(len(jobs)), "us"},
		},
	}
	return st, nil
}
