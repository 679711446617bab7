// Command renamesweep drives the parallel sweep engine: a worker fleet of
// deterministic simulated executions across objects × adversary
// families × crash plans × seeds, with per-worker arenas that amortize
// run-state construction to an allocation-free steady state.
//
// Two modes:
//
//   - the default grid mode enumerates the whole cross product and checks
//     every execution against the paper's validity conditions (strong
//     renaming: names unique and tight in [1..k]; counter monotone
//     consistency);
//   - -search N switches to annealing search: per object, independent
//     chains mutate (adversary seed, crash plan) pairs hunting maximal
//     step complexity.
//
// Either way the report is a pure function of the task space: bit-identical
// for any -workers value, any task interleaving, and any repetition. Worst
// cases (and violations, should one ever appear) are harvested —
// re-recorded through the execution layer into an event log and replayed
// through the trace-forcing adversary to prove the log reproduces the
// execution bit for bit.
//
// The process exits non-zero unless the verdict is "ok", so CI can gate on
// it directly.
//
// Usage:
//
//	renamesweep -list
//	renamesweep [-objects rename8,counter8] [-seeds N] [-workers N]
//	            [-budget N] [-search N] [-chains N] [-json]
//	renamesweep -regressions
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	renaming "repro"
)

func main() {
	objects := flag.String("objects", "", "comma-separated catalog objects to sweep (default: all; see -list)")
	list := flag.Bool("list", false, "list the object catalog and exit")
	seeds := flag.Int("seeds", 4, "runtime seeds per (object, adversary, plan) cell: 1..N")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS); the report does not depend on it")
	budget := flag.Int("budget", 0, "cap total executions (0 = the whole grid / search schedule)")
	search := flag.Int("search", 0, "annealing-search iterations per chain (0 = grid mode)")
	chains := flag.Int("chains", 0, "search chains per object (0 = default)")
	regressions := flag.Bool("regressions", false, "re-verify the frozen worst-case schedules and exit")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	flag.Parse()

	if *list {
		fmt.Printf("%-12s %-12s %3s %3s\n", "object", "kind", "k", "n")
		for _, o := range renaming.SweepObjects() {
			n := "-"
			if o.N > 0 {
				n = fmt.Sprint(o.N)
			}
			fmt.Printf("%-12s %-12s %3d %3s\n", o.Name, o.Kind, o.K, n)
		}
		return
	}

	if *regressions {
		os.Exit(runRegressions(*jsonOut))
	}

	objs := renaming.SweepObjects()
	if *objects != "" {
		objs = objs[:0]
		for _, name := range strings.Split(*objects, ",") {
			o, ok := renaming.SweepObjectByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "renamesweep: unknown object %q; available:", name)
				for _, c := range renaming.SweepObjects() {
					fmt.Fprintf(os.Stderr, " %s", c.Name)
				}
				fmt.Fprintln(os.Stderr)
				os.Exit(2)
			}
			objs = append(objs, o)
		}
	}

	space, err := renaming.NewSweepSpace(objs, *seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "renamesweep: %v\n", err)
		os.Exit(2)
	}
	s, err := renaming.NewSweep(space, renaming.SweepOptions{
		Workers:     *workers,
		Budget:      *budget,
		SearchIters: *search,
		Chains:      *chains,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "renamesweep: %v\n", err)
		os.Exit(2)
	}
	rep := s.Run()

	if *jsonOut {
		os.Stdout.Write(rep.JSON())
		fmt.Println()
	} else {
		printReport(rep)
	}
	if !rep.OK() {
		os.Exit(1)
	}
}

func printReport(rep *renaming.SweepReport) {
	fmt.Printf("mode %s  workers %d  tasks %d  executions %d  %.0f exec/sec  verdict %s\n\n",
		rep.Mode, rep.Workers, rep.Tasks, rep.Executions, rep.ExecPerSec, rep.Verdict)
	fmt.Printf("%-12s %10s %8s %6s %5s %10s %9s  %s\n",
		"object", "execs", "crashes", "viols", "caps", "meansteps", "checksum", "worst")
	for _, o := range rep.Objects {
		fmt.Printf("%-12s %10d %8d %6d %5d %10.1f %9.9s  steps=%d seed=%d adv=%s plan=%s\n",
			o.Object, o.Executions, o.Crashes, o.Violations, o.CapHits, o.MeanSteps, o.Checksum,
			o.Worst.Steps, o.Worst.Seed, o.Worst.Adv, o.Worst.Plan)
	}
	if len(rep.Harvests) > 0 {
		fmt.Println()
		for _, h := range rep.Harvests {
			status := "ok"
			if h.CheckErr != "" {
				status = "INVALID: " + h.CheckErr
			}
			fmt.Printf("harvest %-12s %-9s events=%d decisions=%d source_match=%v replay_identical=%v %s\n",
				h.Object, h.Why, h.Events, h.Decisions, h.SourceMatch, h.ReplayIdentical, status)
		}
	}
}

func runRegressions(jsonOut bool) int {
	code := 0
	for _, reg := range renaming.SweepRegressions() {
		h, err := renaming.RunSweepRegression(reg)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", reg.Name, err)
			code = 1
		case jsonOut:
			// One JSON object per line, replayable downstream.
			b := struct {
				Name string `json:"name"`
				renaming.SweepHarvest
			}{reg.Name, h}
			fmt.Printf("%s\n", mustJSON(b))
		default:
			fmt.Printf("ok   %-18s steps=%d decisions=%d replay_identical=%v\n",
				reg.Name, h.Ref.Steps, h.Decisions, h.ReplayIdentical)
		}
	}
	return code
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
