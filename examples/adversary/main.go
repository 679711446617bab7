// Adversary: the research-facing workflow. The paper's model is an
// asynchronous system where a strong adaptive adversary picks the schedule
// and the failures; this example runs the same renaming workload under
// five adversaries (plus a crash plan), shows that safety — names exactly
// 1..k — holds under all of them while costs shift, and demonstrates
// deterministic replay: the same (seed, adversary) always yields the
// identical execution.
package main

import (
	"fmt"

	renaming "repro"
)

const k = 10

func run(adv renaming.Adversary, seed uint64) (names []uint64, steps uint64, crashed int) {
	rt := renaming.NewSim(seed, adv)
	ren := renaming.NewRenaming(rt)
	names = make([]uint64, k)
	st := rt.Run(k, func(p renaming.Proc) {
		names[p.ID()] = ren.Rename(p, uint64(p.ID())+1)
	})
	for i := range st.Crashed {
		if st.Crashed[i] {
			crashed++
		}
	}
	return names, st.TotalSteps(), crashed
}

func tight(names []uint64, skip int) bool {
	seen := map[uint64]bool{}
	for _, n := range names {
		if n < 1 || n > uint64(len(names)) || seen[n] {
			return false
		}
		seen[n] = true
	}
	return true
}

func main() {
	const seed = 12
	schedules := []struct {
		name string
		mk   func() renaming.Adversary
	}{
		{"round-robin", func() renaming.Adversary { return renaming.RoundRobin() }},
		{"random", func() renaming.Adversary { return renaming.RandomSchedule(seed) }},
		{"sequential", func() renaming.Adversary { return renaming.Sequential() }},
		{"anti-coin", func() renaming.Adversary { return renaming.AntiCoin(seed) }},
		{"oscillator(8)", func() renaming.Adversary { return renaming.Oscillator(8) }},
	}

	fmt.Printf("strong adaptive renaming, k=%d, under adversarial schedules:\n\n", k)
	fmt.Println("schedule        totalSteps  tight(1..k)")
	for _, s := range schedules {
		names, steps, _ := run(s.mk(), seed)
		fmt.Printf("%-14s  %10d  %v\n", s.name, steps, tight(names, 0))
	}

	// Crash injection: processes 3 and 7 die mid-protocol; survivors must
	// still hold distinct names in 1..k (crashed processes count toward
	// contention — they took steps).
	adv := renaming.CrashAt(renaming.RandomSchedule(seed), map[int]uint64{3: 20, 7: 55})
	rt := renaming.NewSim(seed, adv)
	ren := renaming.NewRenaming(rt)
	names := make([]uint64, k)
	st := rt.Run(k, func(p renaming.Proc) {
		names[p.ID()] = ren.Rename(p, uint64(p.ID())+1)
	})
	fmt.Println("\nwith crash plan {p3@20, p7@55} (after that many own steps):")
	for i, n := range names {
		status := ""
		if st.Crashed[i] {
			status = " (crashed mid-protocol)"
			continue
		}
		fmt.Printf("  p%-2d → name %2d%s\n", i, n, status)
	}

	// Deterministic replay: identical seeds and adversaries give identical
	// executions, step for step.
	n1, s1, _ := run(renaming.RandomSchedule(77), 77)
	n2, s2, _ := run(renaming.RandomSchedule(77), 77)
	fmt.Printf("\nreplay check: run A = %v (%d steps), run B identical: %v\n",
		n1, s1, equal(n1, n2) && s1 == s2)
}

func equal(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
