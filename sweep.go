package renaming

import "repro/internal/sweep"

// This file is the facade over internal/sweep, the parallel sweep engine:
// a worker fleet of deterministic simulated executions with
// per-worker arenas (run-state built once, reset per execution), validity
// checking, annealing search for worst-case schedules, and harvesting —
// re-recording worst cases through the execution layer and proving the
// recorded log replays bit for bit. See doc.go ("Schedule sweeps") and
// BENCHMARKS.md ("The sweep engine").

type (
	// Sweep is a configured engine run over a SweepSpace.
	Sweep = sweep.Sweep
	// SweepOptions configures workers, budget, step cap, and search mode.
	SweepOptions = sweep.Options
	// SweepSpace is the task space: objects × adversary families × crash
	// plans × seeds.
	SweepSpace = sweep.Space
	// SweepObject is one swept object configuration.
	SweepObject = sweep.ObjectSpec
	// SweepPlan is one crash plan of a space.
	SweepPlan = sweep.PlanSpec
	// SweepReport is the aggregate outcome: per-object statistics, order-
	// insensitive checksums, worst cases, and harvests. Its Stable() view
	// is bit-identical for any worker count.
	SweepReport = sweep.Report
	// SweepHarvest is one re-recorded worst case or violation.
	SweepHarvest = sweep.Harvest
	// SweepRegression is a frozen worst-case schedule re-verified by
	// RunSweepRegression.
	SweepRegression = sweep.Regression
)

// NewSweep returns a sweep of space under opts; Run executes it and
// returns the report.
//
//	space, _ := renaming.NewSweepSpace(renaming.SweepObjects(), 4)
//	s, _ := renaming.NewSweep(space, renaming.SweepOptions{})
//	rep := s.Run()
//	if !rep.OK() { ... } // violation or harvest mismatch
func NewSweep(space *SweepSpace, opts SweepOptions) (*Sweep, error) {
	return sweep.New(space, opts)
}

// NewSweepSpace assembles a validated space from objects and seeds 1..n
// over the default adversary families and crash plans.
func NewSweepSpace(objects []SweepObject, seeds int) (*SweepSpace, error) {
	return sweep.NewSpace(objects, seeds)
}

// SweepObjects returns the curated object catalog.
func SweepObjects() []SweepObject { return sweep.Objects() }

// SweepObjectByName resolves a catalog object (case-insensitive).
func SweepObjectByName(name string) (SweepObject, bool) { return sweep.ObjectByName(name) }

// SweepRegressions returns the frozen worst-case schedules.
func SweepRegressions() []SweepRegression { return sweep.Regressions() }

// RunSweepRegression re-records one frozen schedule and verifies it still
// reproduces its pinned step and decision counts, passes the validity
// checkers, and replays bit-identically.
func RunSweepRegression(reg SweepRegression) (SweepHarvest, error) {
	return sweep.RunRegression(reg)
}
