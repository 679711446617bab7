package serve

import (
	"sync"
	"testing"
)

// TestPoolRetriesGauge pins the checkout-path contention counter: it starts
// at zero and only failed freelist CASes move it.
func TestPoolRetriesGauge(t *testing.T) {
	pool := newRenamerPool(Options{Shards: 1, PerShard: 2})
	if r := pool.Stats().Retries; r != 0 {
		t.Fatalf("fresh pool retries %d, want 0", r)
	}
	for i := 0; i < 20; i++ { // uncontended serial checkouts: no failed CAS
		a := pool.Get()
		a.Put()
	}
	if r := pool.Stats().Retries; r != 0 {
		t.Fatalf("serial checkouts bumped retries to %d, want 0", r)
	}
}

// TestPoolRetriesUnderContention hammers a single shard from many
// goroutines: under -race the retry counters must stay race-free, and
// every checkout must come back.
func TestPoolRetriesUnderContention(t *testing.T) {
	pool := newRenamerPool(Options{Shards: 1, PerShard: 64})
	const g, iters = 8, 3000
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				a := pool.Get()
				a.Put()
			}
		}()
	}
	wg.Wait()
	// Retries are adversarial-schedule-dependent; on a single-core box the
	// scheduler may serialize enough that few CASes fail. Pin only the
	// invariants: the gauge never moves without contention (previous test),
	// and every checkout came back.
	if pool.InFlight() != 0 {
		t.Fatalf("in-flight after quiescence: %d, want 0", pool.InFlight())
	}
}

// TestPoolCheckoutAllocFree pins the 0 allocs/op contract of the Get/Put
// path once the pool is warm — the retry instrumentation must not add any.
func TestPoolCheckoutAllocFree(t *testing.T) {
	pool := newRenamerPool(Options{Shards: 1, PerShard: 2})
	pool.Get().Put() // warm the shard
	if n := testing.AllocsPerRun(500, func() { pool.Get().Put() }); n != 0 {
		t.Fatalf("Get/Put allocates %.1f/op, want 0", n)
	}
}
