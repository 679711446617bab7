package load

import (
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/wire"
)

// TestWavesLeaveRenameInstancesClean pins that waves run on their own
// pool: after served waves of width 32, every instance the rename pool
// hands out holds at most the comparators and splitter nodes one solo
// rename builds. A renamer keeps every object it ever built (Put resets
// them), so a rename instance that had run a wave would make each later
// rename on it reset the wave's whole graph.
func TestWavesLeaveRenameInstancesClean(t *testing.T) {
	fresh := serve.New(serve.Options{Shards: 1, PerShard: 1}, newRenamer()).Get()
	fresh.Obj.Rename(fresh.Proc(), 1)
	solo := fresh.Obj
	maxComps, maxNodes := solo.ComparatorObjects(), solo.SplitterNodes()

	tg := NewTarget(1)
	for range 16 {
		if k, ok := tg.Do(wire.OpWave, maxWaveK, 1); !ok || k != maxWaveK {
			t.Fatalf("wave ran %d processes (ok %v), want %d", k, ok, maxWaveK)
		}
	}
	if tg.Wave.Stats().Hits+tg.Wave.Stats().Overflows != 16 {
		t.Fatalf("wave pool served %+v, want 16 checkouts", tg.Wave.Stats())
	}
	// Check out every rename instance: hold each until the pool has handed
	// out all it had.
	var held []*serve.Instance[*core.StrongAdaptive]
	st := tg.Rename.Stats()
	for key := uint64(0); tg.Rename.Stats().Hits-st.Hits < uint64(st.Instances); key++ {
		held = append(held, tg.Rename.GetKeyed(key))
	}
	for i, in := range held {
		if c, n := in.Obj.ComparatorObjects(), in.Obj.SplitterNodes(); c > maxComps || n > maxNodes {
			t.Errorf("rename instance %d holds %d comparators and %d splitter nodes; a solo rename builds %d and %d",
				i, c, n, maxComps, maxNodes)
		}
		in.Put()
	}
}
