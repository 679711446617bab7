// Package allocs counts the heap allocations of a function exactly, for
// tests that pin an allocation rate. testing.AllocsPerRun truncates its
// per-run average to an integer, so it cannot pin a rate below one per
// run: a path that allocates 0.9 times per call passes "want 0".
package allocs

import "runtime"

// Count runs f n times at GOMAXPROCS 1 and returns the allocations and
// bytes those calls made, read from the runtime.MemStats totals around
// the loop. Like testing.AllocsPerRun it first calls f once, uncounted,
// after switching GOMAXPROCS. Allocations made by other goroutines during
// the loop count too.
func Count(n int, f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// LiveHeap returns the bytes of heap objects in use after two garbage
// collections (runtime.MemStats.HeapAlloc): what the program still
// references, for tests that bound the memory an object keeps live.
func LiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
