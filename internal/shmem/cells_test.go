package shmem

import (
	"sync"
	"testing"
)

// TestCellsBasics pins rounding, accumulation, and Reset.
func TestCellsBasics(t *testing.T) {
	rt := NewNative(1)
	p := rt.NewProc(0)
	c := NewCells(3)
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (rounded up)", c.Len())
	}
	if got := c.Add(p, 1, 5); got != 5 {
		t.Fatalf("Add returned %d, want 5", got)
	}
	c.Add(p, 1, 2)
	c.Add(p, 3, 1)
	if got := c.Load(p, 1); got != 7 {
		t.Fatalf("Load(1) = %d, want 7", got)
	}
	if got := c.Sum(p); got != 8 {
		t.Fatalf("Sum = %d, want 8", got)
	}
	if got := c.Load(p, 3); got != 1 {
		t.Fatalf("Load(3) = %d, want 1", got)
	}
	c.Reset()
	if got := c.Sum(p); got != 0 {
		t.Fatalf("Sum after Reset = %d, want 0", got)
	}
}

// TestCellsStepAccounting pins the model costs: Add is one CAS-class step,
// Load one read, Sum one read per cell.
func TestCellsStepAccounting(t *testing.T) {
	rt := NewNative(1)
	p := rt.NewProc(0)
	c := NewCells(4)
	c.Add(p, 0, 1)
	c.Load(p, 0)
	c.Sum(p)
	counts := p.Counts()
	if counts.Ops[OpCAS] != 1 {
		t.Errorf("CAS steps = %d, want 1", counts.Ops[OpCAS])
	}
	if counts.Ops[OpRead] != 1+4 {
		t.Errorf("read steps = %d, want 5", counts.Ops[OpRead])
	}
}

// TestCellsConcurrentAdds pins lock-freedom and the cumulative contract
// under real parallelism (run with -race).
func TestCellsConcurrentAdds(t *testing.T) {
	rt := NewNative(1)
	c := NewCells(4)
	const g, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := rt.NewProc(id)
			for j := 0; j < per; j++ {
				c.Add(p, id&3, 1)
			}
		}(i)
	}
	wg.Wait()
	p := rt.NewProc(0)
	if got := c.Sum(p); got != g*per {
		t.Fatalf("Sum = %d, want %d", got, g*per)
	}
}

// TestCellsAllocFree pins the 0 allocs/op contract of the absorption path.
func TestCellsAllocFree(t *testing.T) {
	rt := NewNative(1)
	p := rt.NewProc(0)
	c := NewCells(8)
	if n := testing.AllocsPerRun(1000, func() { c.Add(p, 2, 1) }); n != 0 {
		t.Fatalf("Cells.Add allocates %.1f/op, want 0", n)
	}
}
