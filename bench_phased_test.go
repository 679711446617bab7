// Phased-counting benchmarks (see BENCHMARKS.md "Adaptive phase
// reconciliation").
//
// Two claims are pinned here:
//
//   - The split path wins at high contention: BenchmarkPhasedCounterThroughput
//     (auto mode, many goroutines) vs BenchmarkSharedAACIncThroughput (the
//     same spine hammered directly) — the headline ≥3× of the phased PR.
//     BenchmarkPhasedSplitThroughput / BenchmarkPhasedJoinedThroughput pin
//     the two modes separately, bracketing what the controller picks from.
//   - Joined mode costs nothing: BenchmarkPhasedIncJoined vs
//     BenchmarkAACIncSerial run the identical serial instruction stream
//     plus one atomic mode load — the A/B rows the ~2% budget is judged on
//     (measured in one `go test -bench` invocation, back to back on one
//     process, so they share thermal/layout conditions).
//
// All *Throughput rows force 8-way goroutine parallelism even at -cpu 1
// (b.SetParallelism): on a single-core host the contention the controller
// feeds on comes from scheduler preemption, not parallel cores.
package renaming_test

import (
	"sync/atomic"
	"testing"

	renaming "repro"
)

// phasedParallelism is the goroutine multiplier of the throughput rows:
// enough concurrent incrementers to contend the lanes and the spine
// regardless of GOMAXPROCS.
const phasedParallelism = 8

// BenchmarkPhasedCounterThroughput is the headline row: the served phased
// counter under its automatic hysteretic controller, many goroutines
// incrementing one shared counter.
func BenchmarkPhasedCounterThroughput(b *testing.B) {
	pool := renaming.NewPhasedCounterPool(renaming.WithPhasedSeed(1))
	b.ReportAllocs()
	b.SetParallelism(phasedParallelism)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			pool.Inc()
		}
	})
	reportPhaseStats(b, pool)
}

// BenchmarkPhasedJoinedThroughput pins the counter in joined mode: the
// AAC spine's own instruction stream behind the serving lanes — the lower
// bracket the controller escapes from under load.
func BenchmarkPhasedJoinedThroughput(b *testing.B) {
	pool := renaming.NewPhasedCounterPool(renaming.WithPhasedSeed(1),
		renaming.WithPhasePolicy(renaming.PhasePinJoined))
	b.ReportAllocs()
	b.SetParallelism(phasedParallelism)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			pool.Inc()
		}
	})
	reportPhaseStats(b, pool)
}

// BenchmarkPhasedSplitThroughput pins split mode: padded cell fetch-adds
// with epoch-amortized merges — the upper bracket.
func BenchmarkPhasedSplitThroughput(b *testing.B) {
	pool := renaming.NewPhasedCounterPool(renaming.WithPhasedSeed(1),
		renaming.WithPhasePolicy(renaming.PhasePinSplit))
	b.ReportAllocs()
	b.SetParallelism(phasedParallelism)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			pool.Inc()
		}
	})
	reportPhaseStats(b, pool)
}

// BenchmarkSharedAACIncThroughput is the baseline the ≥3× claim is judged
// against: the same linearizable AAC counter, hammered directly by the
// same goroutine population (per-goroutine process ids, no pool, no
// phases) — the high-contention increment path as it stood before this
// change.
func BenchmarkSharedAACIncThroughput(b *testing.B) {
	rt := renaming.NewNative(1).(*renaming.Native)
	c := renaming.NewLinearizableCounter(rt, 64)
	var ids atomic.Uint64
	b.ReportAllocs()
	b.SetParallelism(phasedParallelism)
	b.RunParallel(func(pb *testing.PB) {
		p := rt.NewProc(int(ids.Add(1)-1) % 64)
		for pb.Next() {
			c.Inc(p)
		}
	})
}

// serialIncRange is the count range the serial A/B rows measure. An AAC
// increment costs more steps the larger the count, so a row that kept one
// counter for its whole loop would let a faster build climb to larger
// values and pay for it; both rows reset their counter (untimed) every
// serialIncRange increments, so every build measures [0, serialIncRange).
const serialIncRange = 1 << 16

// serialIncs runs b.N increments of c by p, resetting c every
// serialIncRange increments with the timer stopped. It loops over b.N
// rather than b.Loop: in Go 1.24 a b.Loop stops only once the time since
// the last StartTimer reaches -benchtime, which a reset every 65,536
// increments never lets happen.
func serialIncs(b *testing.B, c interface {
	Inc(renaming.Proc)
	Reset()
}, p renaming.Proc) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		c.Inc(p)
		if i%serialIncRange == 0 {
			b.StopTimer()
			c.Reset()
			b.StartTimer()
		}
	}
}

// BenchmarkPhasedIncJoined is the serial A/B leg: a bare phased counter in
// joined mode — the spine's increment plus exactly one atomic mode load.
func BenchmarkPhasedIncJoined(b *testing.B) {
	rt := renaming.NewNative(1).(*renaming.Native)
	serialIncs(b, renaming.NewPhasedCounter(rt, 8, 1024), rt.NewProc(0))
}

// BenchmarkAACIncSerial is the other A/B leg: the same merge-layout AAC
// spine incremented directly by the same process. PhasedIncJoined must sit
// within the documented ~2% of this row.
func BenchmarkAACIncSerial(b *testing.B) {
	rt := renaming.NewNative(1).(*renaming.Native)
	serialIncs(b, renaming.NewPhasedCounter(rt, 8, 1024).Spine(), rt.NewProc(0))
}

// BenchmarkPhasedIncSplit is the serial split-mode cost: one padded cell
// fetch-add, with a spine merge every 1024th op.
func BenchmarkPhasedIncSplit(b *testing.B) {
	rt := renaming.NewNative(1).(*renaming.Native)
	c := renaming.NewPhasedCounter(rt, 8, 1024)
	c.SetMode(renaming.PhaseSplit)
	p := rt.NewProc(0)
	b.ReportAllocs()
	for b.Loop() {
		c.Inc(p)
	}
}

// reportPhaseStats attaches the phase machinery's accounting to the row:
// final mode (0 joined / 1 split), transitions, and lease retries per 1k
// ops.
func reportPhaseStats(b *testing.B, pool *renaming.PhasedPool) {
	st := pool.Stats()
	b.ReportMetric(float64(st.Mode), "mode")
	b.ReportMetric(float64(st.Switches), "switches")
	if st.Ops > 0 {
		b.ReportMetric(1000*float64(st.LeaseRetries)/float64(st.Ops), "retries/kop")
	}
}
