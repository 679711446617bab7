// Execution benchmarks, one per experiment table (see BENCHMARKS.md for
// the harness and how to regenerate numbers). Since the two-phase object
// model, these measure the *execution* cost only: the object graph is
// compiled and instantiated once per benchmark and reset between
// iterations — the steady state of a repeated-execution sweep or a
// long-lived serving loop (allocation-free after warmup). Construction
// cost is measured separately in bench_construction_test.go; the
// fresh-build benchmarks there reproduce the old construct-per-iteration
// behavior for the amortization comparison (BENCHMARKS.md, "The
// two-phase object model").
//
// Each iteration executes one full simulated run; the custom metrics
// report the model quantities the paper bounds (simulated steps and
// test-and-set entries per process), while ns/op measures the harness
// itself. BenchmarkNative* run the same objects on real goroutines.
package renaming_test

import (
	"fmt"
	"testing"

	renaming "repro"
	"repro/internal/shmem"
)

// simRun executes one reset-many sweep: build instantiates the object
// graph on the long-lived runtime and returns the per-execution body plus
// its reset; every iteration replays a fresh (seed, schedule) point
// against the reused graph. Construction stays outside the timed region.
func simRun(b *testing.B, k int, build func(mem renaming.Mem) (body func(renaming.Proc), reset func())) {
	b.Helper()
	rt := renaming.NewSim(0, renaming.RandomSchedule(0))
	body, reset := build(rt)
	var maxSteps, totalSteps, comps, tasEnters uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 {
			reset()
			rt.Reset(uint64(i), renaming.RandomSchedule(uint64(i)))
		}
		st := rt.Run(k, body)
		maxSteps += st.MaxSteps()
		totalSteps += st.TotalSteps()
		comps += st.MaxEvent(shmem.EvComparator)
		tasEnters += st.MaxEvent(shmem.EvTASEnter)
	}
	n := float64(b.N)
	b.ReportMetric(float64(maxSteps)/n, "steps/proc")
	b.ReportMetric(float64(totalSteps)/n, "steps/run")
	if comps > 0 {
		b.ReportMetric(float64(comps)/n, "comparators/proc")
	}
	if tasEnters > 0 {
		b.ReportMetric(float64(tasEnters)/n, "tas/proc")
	}
}

// BenchmarkBitBatching regenerates table E1 (Lemma 1, Cor. 1–2): full
// contention renaming into exactly n names.
func BenchmarkBitBatching(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			simRun(b, n, func(mem renaming.Mem) (func(renaming.Proc), func()) {
				bb := renaming.CompileBitBatching(n).Instantiate(mem)
				return func(p renaming.Proc) { bb.Rename(p, uint64(p.ID())+1) }, bb.Reset
			})
		})
	}
}

// BenchmarkRenamingNetwork regenerates table E5 (Theorem 1, Cor. 3): the
// fixed-width renaming network at full occupancy.
func BenchmarkRenamingNetwork(b *testing.B) {
	for _, m := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			simRun(b, m, func(mem renaming.Mem) (func(renaming.Proc), func()) {
				rn := renaming.CompileNetworkRenaming(m).Instantiate(mem)
				return func(p renaming.Proc) { rn.Rename(p, uint64(p.ID())+1) }, rn.Reset
			})
		})
	}
}

// BenchmarkStrongAdaptive regenerates table E8 (Theorem 3): the headline
// adaptive algorithm across contention levels.
func BenchmarkStrongAdaptive(b *testing.B) {
	for _, k := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			simRun(b, k, func(mem renaming.Mem) (func(renaming.Proc), func()) {
				sa := renaming.CompileRenaming().Instantiate(mem)
				return func(p renaming.Proc) { sa.Rename(p, uint64(p.ID())+1) }, sa.Reset
			})
		})
	}
}

// BenchmarkStrongAdaptiveHardware is the deterministic hardware-TAS ablation
// (Discussion §1): same algorithm, comparators resolved by single CAS.
func BenchmarkStrongAdaptiveHardware(b *testing.B) {
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			simRun(b, k, func(mem renaming.Mem) (func(renaming.Proc), func()) {
				sa := renaming.CompileRenaming(renaming.WithHardwareTAS()).Instantiate(mem)
				return func(p renaming.Proc) { sa.Rename(p, uint64(p.ID())+1) }, sa.Reset
			})
		})
	}
}

// BenchmarkLinearProbeBaseline regenerates the baseline column of table E14.
func BenchmarkLinearProbeBaseline(b *testing.B) {
	for _, k := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			simRun(b, k, func(mem renaming.Mem) (func(renaming.Proc), func()) {
				lp := renaming.NewLinearProbeRenaming(mem)
				return func(p renaming.Proc) { lp.Rename(p, uint64(p.ID())+1) }, lp.Reset
			})
		})
	}
}

// BenchmarkCounterInc regenerates table E10 (Lemma 4): monotone counter
// increments plus reads under contention.
func BenchmarkCounterInc(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			simRun(b, k, func(mem renaming.Mem) (func(renaming.Proc), func()) {
				c := renaming.CompileCounter().Instantiate(mem)
				return func(p renaming.Proc) {
					for i := 0; i < 4; i++ {
						c.Inc(p)
						c.Read(p)
					}
				}, c.Reset
			})
		})
	}
}

// BenchmarkFetchInc regenerates table E13 (Theorem 6).
func BenchmarkFetchInc(b *testing.B) {
	for _, m := range []uint64{16, 256} {
		for _, k := range []int{4, 16} {
			b.Run(fmt.Sprintf("m=%d/k=%d", m, k), func(b *testing.B) {
				simRun(b, k, func(mem renaming.Mem) (func(renaming.Proc), func()) {
					f := renaming.NewFetchInc(mem, m)
					return func(p renaming.Proc) { f.Inc(p) }, f.Reset
				})
			})
		}
	}
}

// BenchmarkLTAS regenerates table E12 (Lemma 5).
func BenchmarkLTAS(b *testing.B) {
	for _, ell := range []uint64{1, 8} {
		b.Run(fmt.Sprintf("ell=%d", ell), func(b *testing.B) {
			simRun(b, 16, func(mem renaming.Mem) (func(renaming.Proc), func()) {
				o := renaming.NewLTAS(mem, ell)
				return func(p renaming.Proc) { o.Try(p) }, o.Reset
			})
		})
	}
}

// BenchmarkNativeRenaming runs strong adaptive renaming on real goroutines
// (wall-clock throughput of the library as a Go component, hardware TAS),
// instantiate-once / reset-many on a reusable RunGroup: the serving-loop
// steady state — zero allocations per execution beyond the k goroutines.
func BenchmarkNativeRenaming(b *testing.B) {
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rt := renaming.NewNative(1).(*renaming.Native)
			sa := renaming.CompileRenaming(renaming.WithHardwareTAS()).Instantiate(rt)
			g := rt.NewRunGroup(k)
			body := func(p renaming.Proc) { sa.Rename(p, uint64(p.ID())+1) }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 {
					sa.Reset()
				}
				g.Run(body)
			}
		})
	}
}

// BenchmarkNativeRenamingFaultArmed measures the armed step hook: the same
// execution as BenchmarkNativeRenaming but with a FaultPlan armed that
// never fires (it names a process id that never runs), so the difference
// to BenchmarkNativeRenaming is the per-step cost of hook dispatch plus
// one crash check. The disarmed cost is the nil-check already included in
// BenchmarkNativeRenaming (see BENCHMARKS.md "The execution layer").
func BenchmarkNativeRenamingFaultArmed(b *testing.B) {
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rt := renaming.NewNative(1).(*renaming.Native)
			sa := renaming.CompileRenaming(renaming.WithHardwareTAS()).Instantiate(rt)
			ex := renaming.NewExecution(rt, k)
			ex.Faults(renaming.CrashAtStep(map[int]uint64{k: 1 << 60}))
			body := func(p renaming.Proc) { sa.Rename(p, uint64(p.ID())+1) }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 {
					sa.Reset()
				}
				ex.Run(body)
			}
		})
	}
}

// BenchmarkNativeRenamingRecorded measures the trace recorder: recording
// serializes the native execution (the ordering lock is held across every
// operation) to obtain a sound total order for sim replay — the documented
// price of turning a hardware interleaving into a deterministic artifact.
func BenchmarkNativeRenamingRecorded(b *testing.B) {
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rt := renaming.NewNative(1).(*renaming.Native)
			sa := renaming.CompileRenaming(renaming.WithHardwareTAS()).Instantiate(rt)
			ex := renaming.NewExecution(rt, k)
			ex.Record()
			body := func(p renaming.Proc) { sa.Rename(p, uint64(p.ID())+1) }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 {
					sa.Reset()
				}
				ex.Run(body)
			}
		})
	}
}

// BenchmarkNativeCounter measures the monotone counter on real goroutines,
// instantiate-once / reset-many on a reusable RunGroup.
func BenchmarkNativeCounter(b *testing.B) {
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rt := renaming.NewNative(1).(*renaming.Native)
			c := renaming.CompileCounter(renaming.WithHardwareTAS()).Instantiate(rt)
			g := rt.NewRunGroup(k)
			body := func(p renaming.Proc) {
				for j := 0; j < 4; j++ {
					c.Inc(p)
					c.Read(p)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 {
					c.Reset()
				}
				g.Run(body)
			}
		})
	}
}
