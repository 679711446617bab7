// Construction benchmarks: the other half of the construction-vs-execution
// split (bench_test.go holds the execution side). Three families:
//
//   - BenchmarkInstantiate*: compile-once + instantiate per iteration —
//     the cost of stamping shared state from a cached blueprint onto a
//     runtime (what a sharded server pays per shard).
//   - BenchmarkFreshBuild*: construct AND run per iteration — the
//     pre-two-phase behavior (what every execution used to pay). The ratio
//     FreshBuild / the matching execution benchmark in bench_test.go is
//     the amortization win (BENCHMARKS.md, "The two-phase object model").
//   - BenchmarkCompileCold: one uncached blueprint compilation, for the
//     construction-cost table in BENCHMARKS.md (cached compiles are a map
//     lookup and not worth timing).
package renaming_test

import (
	"fmt"
	"testing"

	renaming "repro"
	"repro/internal/sortnet"
)

// BenchmarkInstantiateStrongAdaptive measures blueprint instantiation of
// the headline renamer (shared adaptive network, fresh splitter tree and
// comparator table).
func BenchmarkInstantiateStrongAdaptive(b *testing.B) {
	bp := renaming.CompileRenaming()
	rt := renaming.NewSim(0, renaming.RandomSchedule(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.Instantiate(rt)
	}
}

// BenchmarkInstantiateBitBatching measures instantiation of the n-slot
// vector (n RatRaces, the heaviest instantiation in the repository).
func BenchmarkInstantiateBitBatching(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			bp := renaming.CompileBitBatching(n)
			rt := renaming.NewSim(0, renaming.RandomSchedule(0))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bp.Instantiate(rt)
			}
		})
	}
}

// BenchmarkInstantiateCountingNetwork measures arena instantiation of
// Bitonic[w] from its cached wiring.
func BenchmarkInstantiateCountingNetwork(b *testing.B) {
	for _, w := range []int{16, 64} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			bp := renaming.CompileCountingNetwork(w)
			rt := renaming.NewSim(0, renaming.RandomSchedule(0))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bp.Instantiate(rt)
			}
		})
	}
}

// BenchmarkCompileCold measures one uncached blueprint compilation (the
// cost the process-wide caches amortize away): materializing and indexing
// Batcher's network at width M.
func BenchmarkCompileCold(b *testing.B) {
	for _, m := range []int{64, 256} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Bypass the caches deliberately: fresh materialization.
				sortnet.OddEvenMergeNet(m)
			}
		})
	}
}

// BenchmarkFreshBuildStrongAdaptive is the pre-two-phase behavior of
// BenchmarkStrongAdaptive: a fresh runtime and a fresh object graph per
// execution. Compare against BenchmarkStrongAdaptive (reset-many) for the
// amortization win.
func BenchmarkFreshBuildStrongAdaptive(b *testing.B) {
	for _, k := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rt := renaming.NewSim(uint64(i), renaming.RandomSchedule(uint64(i)))
				sa := renaming.NewRenaming(rt)
				rt.Run(k, func(p renaming.Proc) { sa.Rename(p, uint64(p.ID())+1) })
			}
		})
	}
}

// BenchmarkFreshBuildBitBatching is the pre-two-phase behavior of
// BenchmarkBitBatching (construction dominated: n RatRaces per iteration).
func BenchmarkFreshBuildBitBatching(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rt := renaming.NewSim(uint64(i), renaming.RandomSchedule(uint64(i)))
				bb := renaming.NewBitBatchingRenaming(rt, n)
				rt.Run(n, func(p renaming.Proc) { bb.Rename(p, uint64(p.ID())+1) })
			}
		})
	}
}

// BenchmarkFreshBuildNativeRenaming is the pre-two-phase behavior of
// BenchmarkNativeRenaming: a fresh runtime and graph per execution. The
// seed is pinned to the same value the reset-many benchmark uses (a
// native runtime cannot re-seed on reuse), so the pair differs only in
// construction — the ratio is the amortization win, not seed selection.
func BenchmarkFreshBuildNativeRenaming(b *testing.B) {
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rt := renaming.NewNative(1)
				sa := renaming.NewRenaming(rt, renaming.WithHardwareTAS())
				rt.Run(k, func(p renaming.Proc) {
					sa.Rename(p, uint64(p.ID())+1)
				})
			}
		})
	}
}
