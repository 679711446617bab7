package core

import (
	"testing"

	"repro/internal/shmem"
)

// TestCASCounterIncAllocFree pins that the increment path allocates
// nothing.
func TestCASCounterIncAllocFree(t *testing.T) {
	rt := shmem.NewNative(1)
	p := rt.NewProc(0)
	c := NewCASCounter(rt)
	if n := testing.AllocsPerRun(1000, func() { c.Inc(p) }); n != 0 {
		t.Fatalf("CASCounter.Inc allocates %.1f/op, want 0", n)
	}
}
