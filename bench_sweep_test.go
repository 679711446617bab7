// Sweep-engine benchmarks: what a per-worker arena buys over rebuilding
// run state per execution. Three legs on the same workload — bitbatch64
// (k=8 processes renaming into a 64-slot namespace) cycling the burst
// schedule set (rr-burst8, oscillator32, sequential), fault-free:
//
//   - BenchmarkSweepExecReuse: the engine's steady state — object graph
//     instantiated once per arena slot, Runtime.Reset + object Reset per
//     execution, coroutines parked between runs (0 allocs/op);
//   - BenchmarkSweepExecInstantiate: cached blueprint, but a fresh
//     simulator runtime and a fresh instantiation per execution — the
//     naive fleet, paying run-state construction every time;
//   - BenchmarkSweepExecFreshBuild: full facade construction per
//     execution — the pre-two-phase behavior.
//
// The Reuse/Instantiate ratio is the amortization win (BENCHMARKS.md,
// "The sweep engine"). BenchmarkSweepThroughput is the same engine under
// a -cpu sweep; on a single-core host the -cpu rows measure
// oversubscription overhead, not scaling.
package renaming_test

import (
	"runtime"
	"testing"

	renaming "repro"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/tas"
)

// sweepBenchSpace is the benchmark task space: bitbatch64 × burst
// schedules × fault-free, with enough seeds that a Budget of n executions
// never exhausts the grid.
func sweepBenchSpace(n int) *renaming.SweepSpace {
	obj, ok := renaming.SweepObjectByName("bitbatch64")
	if !ok {
		panic("bitbatch64 left the catalog")
	}
	return &renaming.SweepSpace{
		Objects: []renaming.SweepObject{obj},
		Advs:    sweep.BurstAdvs(),
		Plans:   []renaming.SweepPlan{{Name: "none"}},
		Seeds:   sweep.SeedRange(1, n),
	}
}

// benchAdv mirrors sweep.BurstAdvs for the non-engine legs: the i-th
// execution of every leg runs the same (schedule family, seed) pair.
func benchAdv(i int) sim.Adversary {
	switch i % 3 {
	case 0:
		return sim.NewRoundRobinBurst(8)
	case 1:
		return sim.NewOscillator(32)
	default:
		return sim.NewSequential()
	}
}

func BenchmarkSweepExecReuse(b *testing.B) {
	s, err := renaming.NewSweep(sweepBenchSpace(b.N), renaming.SweepOptions{
		Workers: 1, Budget: b.N, NoHarvest: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rep := s.Run()
	b.StopTimer()
	if rep.Executions != uint64(b.N) || !rep.OK() {
		b.Fatalf("executions=%d verdict=%s, want %d ok", rep.Executions, rep.Verdict, b.N)
	}
	b.ReportMetric(rep.ExecPerSec, "exec/s")
}

func BenchmarkSweepExecInstantiate(b *testing.B) {
	bp := core.CompileBitBatching(64)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		rt := sim.New(uint64(i/3)+1, benchAdv(i))
		bb := bp.Instantiate(rt, tas.MakeUnit)
		rt.Run(8, func(p renaming.Proc) {
			sink += bb.Rename(p, uint64(p.ID())+1)
		})
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("no names acquired")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "exec/s")
}

func BenchmarkSweepExecFreshBuild(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		rt := sim.New(uint64(i/3)+1, benchAdv(i))
		bb := renaming.NewBitBatchingRenaming(rt, 64)
		rt.Run(8, func(p renaming.Proc) {
			sink += bb.Rename(p, uint64(p.ID())+1)
		})
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("no names acquired")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "exec/s")
}

// BenchmarkSweepThroughput runs the full engine — shared task counter,
// arenas, accumulators — at the -cpu sweep's worker count.
func BenchmarkSweepThroughput(b *testing.B) {
	s, err := renaming.NewSweep(sweepBenchSpace(b.N), renaming.SweepOptions{
		Workers: runtime.GOMAXPROCS(0), Budget: b.N, NoHarvest: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rep := s.Run()
	b.StopTimer()
	if rep.Executions != uint64(b.N) || !rep.OK() {
		b.Fatalf("executions=%d verdict=%s, want %d ok", rep.Executions, rep.Verdict, b.N)
	}
	b.ReportMetric(rep.ExecPerSec, "exec/s")
}
