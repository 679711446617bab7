// Command renametrace runs one execution of strong adaptive renaming and
// prints the full schedule transcript: every scheduling decision (global
// order, process, operation), the per-process step accounting, and the
// resulting names. Executions go through the unified execution layer
// (renaming.NewExecution), so the same command drives both runtimes:
//
//   - the default simulated mode runs under a chosen adversary, with
//     optional crash injection; runs are deterministic in (seed, adversary,
//     crash plan), so a transcript is a reproducible witness of one
//     asynchronous execution;
//   - -native records a real concurrent execution on the native runtime,
//     checks the recorded trace against the strong-renaming validity
//     conditions, and replays it bit-identically on the simulator through
//     the trace adversary — turning one hardware interleaving into a
//     deterministic artifact.
//
// -json emits the whole transcript (run parameters, names, per-process
// accounting, every event, and the native-replay verdict) as one JSON
// object for downstream tooling.
//
// Usage:
//
//	renametrace [-k 6] [-seed 1] [-adversary random] [-max 40] \
//	            [-crash p@s] [-native] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	renaming "repro"
	"repro/internal/shmem"
)

func main() {
	k := flag.Int("k", 6, "number of participating processes")
	seed := flag.Uint64("seed", 1, "coin seed (same seed+adversary+crash plan ⇒ same execution)")
	advName := flag.String("adversary", "random", "roundrobin | random | sequential | anticoin | laggard | oscillator (simulated mode)")
	maxLines := flag.Int("max", 40, "print at most this many trace lines (0 = all; text mode only)")
	crash := flag.String("crash", "", "fault plan, e.g. 2@15,4@60: crash process p after s completed steps")
	native := flag.Bool("native", false, "record on the native runtime, check the trace, replay it on the simulator")
	jsonOut := flag.Bool("json", false, "emit the full transcript as JSON")
	flag.Parse()

	plan, err := renaming.ParseFaultPlan(*crash)
	if err != nil {
		fatal(fmt.Errorf("-crash: %w", err))
	}

	var rt renaming.Runtime
	mode := "sim"
	if *native {
		mode = "native"
		rt = renaming.NewNative(*seed)
	} else {
		adv, err := pickAdversary(*advName, *seed)
		if err != nil {
			fatal(err)
		}
		rt = renaming.NewSim(*seed, adv)
	}

	ex := renaming.NewExecution(rt, *k)
	if plan != nil {
		ex.Faults(plan)
	}
	log := ex.Record()

	ren := renaming.NewRenaming(rt)
	names := make([]uint64, *k)
	st := ex.Run(func(p renaming.Proc) {
		n := ren.Rename(p, uint64(p.ID())+1)
		names[p.ID()] = n
		ex.MarkName(p, n)
	})

	checkErr := renaming.CheckRenamingTrace(log)
	var replay *replayReport
	if *native {
		replay = verifyReplay(log, *k, names, st)
	}

	if *jsonOut {
		emitJSON(mode, *k, *seed, *advName, *crash, names, st, log, checkErr, replay)
		return
	}
	emitText(mode, *k, *seed, *advName, *maxLines, names, st, log, checkErr, replay)
}

// verifyReplay re-executes a native recording on the simulator and compares
// names and per-process accounting — the record/replay contract, verified
// on every -native run.
func verifyReplay(log *renaming.EventLog, k int, names []uint64, st *renaming.Stats) *replayReport {
	rt := renaming.Replay(log)
	ren := renaming.NewRenaming(rt)
	renames := make([]uint64, k)
	rst := rt.Run(k, func(p renaming.Proc) {
		renames[p.ID()] = ren.Rename(p, uint64(p.ID())+1)
	})
	rep := &replayReport{NamesMatch: true, CountsMatch: true}
	for p := 0; p < k; p++ {
		crashed := st.Crashed != nil && st.Crashed[p]
		if !crashed && renames[p] != names[p] {
			rep.NamesMatch = false
		}
		if st.PerProc[p] != rst.PerProc[p] {
			rep.CountsMatch = false
		}
	}
	return rep
}

type replayReport struct {
	NamesMatch  bool `json:"names_match"`
	CountsMatch bool `json:"counts_match"`
}

func emitText(mode string, k int, seed uint64, advName string, maxLines int, names []uint64, st *renaming.Stats, log *renaming.EventLog, checkErr error, replay *replayReport) {
	if mode == "native" {
		fmt.Printf("strong adaptive renaming: k=%d seed=%d runtime=native (recorded)\n", k, seed)
	} else {
		fmt.Printf("strong adaptive renaming: k=%d seed=%d adversary=%s\n", k, seed, advName)
	}
	lines := 0
	for _, e := range log.Events() {
		if e.Kind == renaming.EvMark {
			continue
		}
		lines++
		if maxLines > 0 && lines > maxLines {
			if lines == maxLines+1 {
				fmt.Println("  ... (truncated; use -max 0 for everything)")
			}
			continue
		}
		verb := e.Op.String()
		if e.Kind == renaming.EvCrash {
			verb = "CRASH"
		}
		fmt.Printf("  t=%-6d p%-3d %s\n", e.Seq, e.Proc, verb)
	}

	fmt.Printf("\n%d scheduling decisions total\n\n", lines)
	fmt.Println("proc  name  steps  reads  writes  cas  comparators  splitters  crashed")
	for i := range names {
		pc := st.PerProc[i]
		crashed := st.Crashed != nil && st.Crashed[i]
		fmt.Printf("%4d  %4d  %5d  %5d  %6d  %3d  %11d  %9d  %v\n",
			i, names[i], pc.Steps(),
			pc.Ops[shmem.OpRead], pc.Ops[shmem.OpWrite], pc.Ops[shmem.OpCAS],
			pc.Events[shmem.EvComparator], pc.Events[shmem.EvSplitter],
			crashed)
	}
	if checkErr != nil {
		fmt.Printf("\ntrace check: FAILED: %v\n", checkErr)
	} else {
		fmt.Printf("\ntrace check: ok (names valid)\n")
	}
	if replay != nil {
		fmt.Printf("sim replay: names match=%v, per-proc counts match=%v\n", replay.NamesMatch, replay.CountsMatch)
	}
}

func emitJSON(mode string, k int, seed uint64, advName, crash string, names []uint64, st *renaming.Stats, log *renaming.EventLog, checkErr error, replay *replayReport) {
	type jsonProc struct {
		Proc        int    `json:"proc"`
		Name        uint64 `json:"name"`
		Steps       uint64 `json:"steps"`
		Reads       uint64 `json:"reads"`
		Writes      uint64 `json:"writes"`
		CAS         uint64 `json:"cas"`
		Comparators uint64 `json:"comparators"`
		Splitters   uint64 `json:"splitters"`
		Crashed     bool   `json:"crashed"`
	}
	type jsonEvent struct {
		Seq  uint64 `json:"seq"`
		Proc int32  `json:"proc"`
		PSeq uint64 `json:"pseq"`
		Kind string `json:"kind"`
		Op   string `json:"op,omitempty"`
		Tag  string `json:"tag,omitempty"`
		Val  uint64 `json:"val,omitempty"`
	}
	out := struct {
		Schema    string        `json:"schema"`
		Mode      string        `json:"mode"`
		K         int           `json:"k"`
		Seed      uint64        `json:"seed"`
		Adversary string        `json:"adversary,omitempty"`
		Crash     string        `json:"crash,omitempty"`
		Decisions int           `json:"decisions"`
		Check     string        `json:"check"`
		Replay    *replayReport `json:"replay,omitempty"`
		Procs     []jsonProc    `json:"procs"`
		Events    []jsonEvent   `json:"events"`
	}{
		Schema: "renametrace/v1",
		Mode:   mode,
		K:      k,
		Seed:   seed,
		Crash:  crash,
		Check:  "ok",
		Replay: replay,
	}
	if mode == "sim" {
		out.Adversary = advName
	}
	if checkErr != nil {
		out.Check = checkErr.Error()
	}
	out.Decisions = log.Decisions()
	for i := range names {
		pc := st.PerProc[i]
		out.Procs = append(out.Procs, jsonProc{
			Proc:        i,
			Name:        names[i],
			Steps:       pc.Steps(),
			Reads:       pc.Ops[shmem.OpRead],
			Writes:      pc.Ops[shmem.OpWrite],
			CAS:         pc.Ops[shmem.OpCAS],
			Comparators: pc.Events[shmem.EvComparator],
			Splitters:   pc.Events[shmem.EvSplitter],
			Crashed:     st.Crashed != nil && st.Crashed[i],
		})
	}
	for _, e := range log.Events() {
		je := jsonEvent{Seq: e.Seq, Proc: e.Proc, PSeq: e.PSeq, Kind: e.Kind.String()}
		switch e.Kind {
		case renaming.EvMark:
			je.Tag = e.Tag.String()
			je.Val = e.Val
		default:
			je.Op = e.Op.String()
		}
		out.Events = append(out.Events, je)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "renametrace:", err)
	os.Exit(2)
}

func pickAdversary(name string, seed uint64) (renaming.Adversary, error) {
	switch name {
	case "roundrobin":
		return renaming.RoundRobin(), nil
	case "random":
		return renaming.RandomSchedule(seed), nil
	case "sequential":
		return renaming.Sequential(), nil
	case "anticoin":
		return renaming.AntiCoin(seed), nil
	case "laggard":
		return renaming.Laggard(0), nil
	case "oscillator":
		return renaming.Oscillator(8), nil
	default:
		return nil, fmt.Errorf("unknown adversary %q", name)
	}
}
