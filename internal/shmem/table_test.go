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

// TestLazyTableRange checks that Range visits every inserted key exactly
// once, with its value: key 0 alone and beside others, a sparse inline
// table, a full inline one (47 entries; Range lists them through the
// occupancy word) and a grown one (200 entries; Range scans the
// generation). In the concurrent mode, Ranges run while the keys go in:
// each may miss a key still being inserted, but must never visit one twice
// or see a value other than the one its key was inserted with.
func TestLazyTableRange(t *testing.T) {
	spread := func(n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i+1) * 0x9E3779B9
		}
		return keys
	}
	cases := []struct {
		name   string
		keys   []uint64
		inline bool
	}{
		{"zero", []uint64{0}, true},
		{"zero-and-one", []uint64{0, 1}, true},
		{"sparse", []uint64{0, 3, 1 << 40, 0xdeadbeef, ^uint64(0)}, true},
		{"inline-47", spread(47), true},
		{"grown-200", append([]uint64{0}, spread(199)...), false},
	}
	value := func(k uint64) int { return int(k%1_000_003) + 1 }
	for _, mode := range accessModes {
		for _, tc := range cases {
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				tab := NewLazyTable[int]()
				visit := func(want int) {
					seen := make(map[uint64]bool, len(tc.keys))
					tab.Range(func(k uint64, v int) bool {
						if seen[k] {
							t.Errorf("Range visited key %#x twice", k)
						}
						seen[k] = true
						if v != value(k) {
							t.Errorf("Range saw key %#x = %d, want %d", k, v, value(k))
						}
						return true
					})
					if want >= 0 && len(seen) != want {
						t.Errorf("Range visited %d keys, want %d", len(seen), want)
					}
				}
				insert := func() {
					for _, k := range tc.keys {
						tab.Insert(k, value(k))
					}
				}
				if mode == "concurrent" {
					done := make(chan struct{})
					go func() {
						defer close(done)
						insert()
					}()
					for running := true; running; {
						select {
						case <-done:
							running = false
						default:
							visit(-1)
						}
					}
				} else {
					insert()
				}
				if inline := tab.tab.Load() == &tab.first; inline != tc.inline {
					t.Fatalf("%d entries: inline = %v, want %v", len(tc.keys), inline, tc.inline)
				}
				visit(len(tc.keys))
				var n int
				tab.Range(func(uint64, int) bool { n++; return false })
				if n != 1 {
					t.Fatalf("Range went on after f returned false: %d visits", n)
				}
			})
		}
	}
}
