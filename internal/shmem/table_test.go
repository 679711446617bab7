package shmem

import (
	"sync"
	"testing"
)

// accessModes names the two ways the algorithms drive a table: one
// goroutine at a time (the simulator) and many at once (the native runtime).
var accessModes = []string{"serial", "concurrent"}

// TestLazyTableBasic checks Lookup, Insert and Len. In the concurrent mode,
// readers look up the same keys throughout and must never see a value other
// than the first one inserted.
func TestLazyTableBasic(t *testing.T) {
	for _, mode := range accessModes {
		t.Run(mode, func(t *testing.T) {
			tab := NewLazyTable[int]()
			if mode == "concurrent" {
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for r := 0; r < 4; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							if v, ok := tab.Lookup(42); ok && v != 7 {
								t.Errorf("reader saw key 42 = %d, want 7", v)
								return
							}
							if v, ok := tab.Lookup(0); ok && v != 11 {
								t.Errorf("reader saw key 0 = %d, want 11", v)
								return
							}
						}
					}()
				}
				defer wg.Wait()
				defer close(stop)
			}
			if _, ok := tab.Lookup(42); ok {
				t.Fatal("lookup on empty table hit")
			}
			if got := tab.Insert(42, 7); got != 7 {
				t.Fatalf("insert returned %d, want 7", got)
			}
			if got := tab.Insert(42, 9); got != 7 {
				t.Fatalf("duplicate insert returned %d, want first value 7", got)
			}
			if v, ok := tab.Lookup(42); !ok || v != 7 {
				t.Fatalf("lookup = %d,%v, want 7,true", v, ok)
			}
			// Key zero is legal (BFS index 0, wire 0, ...).
			if _, ok := tab.Lookup(0); ok {
				t.Fatal("zero key present before insert")
			}
			tab.Insert(0, 11)
			if v, ok := tab.Lookup(0); !ok || v != 11 {
				t.Fatalf("zero-key lookup = %d,%v, want 11,true", v, ok)
			}
			if tab.Len() != 2 {
				t.Fatalf("Len = %d, want 2", tab.Len())
			}
		})
	}
}

// TestLazyTableGrowth pushes the open-addressing table through many
// doublings and checks every entry survives each rehash. In the concurrent
// mode, several goroutines insert disjoint keys, so rehashes race inserts.
func TestLazyTableGrowth(t *testing.T) {
	for _, mode := range accessModes {
		t.Run(mode, func(t *testing.T) {
			tab := NewLazyTable[int]()
			const n = 10_000
			workers := 1
			if mode == "concurrent" {
				workers = 4
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := uint64(1 + w); i <= n; i += uint64(workers) {
						tab.Insert(i*0x9E3779B9, int(i))
					}
				}(w)
			}
			wg.Wait()
			if tab.Len() != n {
				t.Fatalf("Len = %d, want %d", tab.Len(), n)
			}
			for i := uint64(1); i <= n; i++ {
				v, ok := tab.Lookup(i * 0x9E3779B9)
				if !ok || v != int(i) {
					t.Fatalf("key %d: got %d,%v", i, v, ok)
				}
			}
		})
	}
}

// TestLazyTableConcurrent hammers the table from many goroutines: every
// racer for a key must observe the same winner.
func TestLazyTableConcurrent(t *testing.T) {
	tab := NewLazyTable[int]()
	const (
		workers = 8
		keys    = 500
	)
	winners := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			winners[w] = make([]int, keys)
			for k := 0; k < keys; k++ {
				if v, ok := tab.Lookup(uint64(k)); ok {
					winners[w][k] = v
				} else {
					winners[w][k] = tab.Insert(uint64(k), w*keys+k)
				}
			}
		}(w)
	}
	wg.Wait()
	if tab.Len() != keys {
		t.Fatalf("Len = %d, want %d", tab.Len(), keys)
	}
	for k := 0; k < keys; k++ {
		want, _ := tab.Lookup(uint64(k))
		for w := 0; w < workers; w++ {
			if winners[w][k] != want {
				t.Fatalf("key %d: worker %d observed %d, table holds %d", k, w, winners[w][k], want)
			}
		}
	}
}
