// Parallel throughput benchmarks: the serving-engine suite (see
// BENCHMARKS.md "Throughput"). Where bench_test.go measures one
// execution at a time, these measure sustained operation throughput from
// many goroutines — the regime the sharded pool exists for. Run with
// -cpu 1,2,4,8 to sweep the goroutine/CPU axis; the -cpu 1 row is the
// single-goroutine baseline of the scaling comparison.
//
// Two comparisons matter:
//
//   - PoolRename vs the same name at higher -cpu: shard scaling (flat on
//     a single-core host; see BENCHMARKS.md for the caveat).
//   - PoolRename vs UnpooledRename: what recycling saves over
//     instantiating a graph per request (both paths compile once).
//
// SharedCounter is the paper counter's in-process cost: every goroutine
// on one shared instance. A counter is not pooled, since a pool resets an
// instance on every return.
package renaming_test

import (
	"sync/atomic"
	"testing"

	renaming "repro"
)

// BenchmarkPoolRenameThroughput serves one-shot renames from a sharded
// pool: checkout → Rename on a fresh graph → recycle. The per-op work is
// the solo-rename fast path (one splitter visit, one leaf comparator),
// so the measurement is dominated by the serving engine itself.
func BenchmarkPoolRenameThroughput(b *testing.B) {
	pool := renaming.NewRenamingPool()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			pool.Do(func(p renaming.Proc, sa *renaming.StrongAdaptive) {
				sa.Rename(p, 1)
			})
		}
	})
	reportPoolStats(b, pool.Stats())
}

// BenchmarkUnpooledRenameThroughput is the no-pool baseline for the same
// operation: instantiate a graph per request (compile is still cached
// process-wide — this isolates exactly what pooling saves).
func BenchmarkUnpooledRenameThroughput(b *testing.B) {
	bp := renaming.CompileRenaming(renaming.WithHardwareTAS())
	rt := renaming.NewNative(1).(*renaming.Native)
	var ids atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		p := rt.NewProc(int(ids.Add(1)))
		for pb.Next() {
			sa := bp.Instantiate(rt)
			sa.Rename(p, 1)
		}
	})
}

// BenchmarkSharedCounterThroughput is the paper counter's in-process
// cost: every goroutine increments and reads one shared counter instance.
func BenchmarkSharedCounterThroughput(b *testing.B) {
	rt := renaming.NewNative(1).(*renaming.Native)
	c := renaming.CompileCounter(renaming.WithHardwareTAS()).Instantiate(rt)
	var ids atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		p := rt.NewProc(int(ids.Add(1)))
		for pb.Next() {
			c.Inc(p)
			c.Read(p)
		}
	})
}

// BenchmarkPoolExecuteThroughput serves whole k-process renaming
// executions from the pool: each request checks out a graph, runs k
// goroutine-processes against it, and recycles. Requests on different
// instances share no memory; the -cpu sweep measures request-level
// scaling.
func BenchmarkPoolExecuteThroughput(b *testing.B) {
	const k = 8
	pool := renaming.NewRenamingPool()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			pool.Execute(k, func(p renaming.Proc, sa *renaming.StrongAdaptive) {
				sa.Rename(p, uint64(p.ID())+1)
			})
		}
	})
	reportPoolStats(b, pool.Stats())
}

// reportPoolStats turns the pool's checkout accounting into benchmark
// metrics: instances the pool grew to, and the overflow share of
// checkouts.
func reportPoolStats(b *testing.B, st renaming.PoolStats) {
	b.ReportMetric(float64(st.Instances), "instances")
	total := st.Hits + st.Overflows
	if total > 0 {
		b.ReportMetric(100*float64(st.Overflows)/float64(total), "overflow-%")
	}
}
