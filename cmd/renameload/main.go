// Command renameload drives the workload harness: it runs one catalog (or
// flag-adjusted) scenario — open- or closed-loop arrivals, rename/counter
// op mixes, k-process execution waves with churn and crash storms —
// against the sharded serving pools and reports per-phase latency
// quantiles, achieved-vs-offered rates, and sampled live contention.
//
// Two runtimes:
//
//   - the default native mode is the wall-clock load test: real goroutines
//     against real pools, latency in nanoseconds, open-loop lateness
//     accounted so coordinated omission cannot hide stalls;
//   - -runtime sim runs the same scenario on the deterministic simulator:
//     latency becomes step complexity and the whole report is a pure
//     function of (seed, scenario). The command runs the scenario twice
//     and fails unless the two runs are bit-identical modulo the elapsed
//     wall time — every sim report is its own replay proof.
//
// The process exits non-zero unless the report verdict is "ok", so CI can
// gate on it directly.
//
// With -addr the generators drive a renameserve wire server instead of
// in-process pools: the same scenarios, the same scheduled-arrival latency
// accounting, but every operation crosses the batched binary wire protocol.
// With -ring they drive a whole renameserve cluster: operations route by
// key over the ring file's nodes and rename replies come back as
// cluster-wide names. Both are native-runtime only, and both refuse an
// explicit -faults plan (fault plans arm in-process wave processes and do
// not travel over the wire; a scenario's own catalog plan is stripped with
// a note). Both also refuse a phased scenario with waves (phased-churn):
// phased waves run in process only, and the wire has no phased-wave op. -deadline arms a per-batch server-side budget; servers running
// admission control shed late batches typed and retryable, counted in the
// report's sheds field without failing the verdict. -trace N arms
// end-to-end tracing: every frame carries a trace id whose reply echoes
// the server's stage decomposition (reported as the stages row under the
// latency table), sampled ids record spans at every hop, and after the run
// the N slowest client-side chains print with their per-hop breakdown
// (the same trace ids index the server-side spans on each node's /trace
// endpoint).
//
// Usage:
//
//	renameload -list
//	renameload [-scenario churn] [-rate R] [-duration D] [-workers N]
//	           [-ops N] [-seed S] [-faults 1@8,3@20|none] [-runtime sim]
//	           [-addr host:port | -ring ring.txt] [-deadline D] [-trace N]
//	           [-json]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	renaming "repro"
)

func main() {
	scenario := flag.String("scenario", "steady", "catalog scenario to run (see -list)")
	list := flag.Bool("list", false, "list the scenario catalog and exit")
	runtimeName := flag.String("runtime", "native", "native (wall-clock load) | sim (deterministic replay)")
	rate := flag.Float64("rate", 0, "override the offered rate in ops/sec (scales Peak by the same factor)")
	duration := flag.Duration("duration", 0, "override the scenario duration")
	workers := flag.Int("workers", 0, "override the generator goroutine count")
	ops := flag.Uint64("ops", 0, "override the op budget (sim mode: the exact budget)")
	seed := flag.Uint64("seed", 0, "override the scenario seed (sim mode: the replay seed)")
	faults := flag.String("faults", "", "override the fault plan: p@s,p@s crashes process p after s completed steps of each wave; 'none' disarms the scenario's plan (explicit plans are incompatible with -addr/-ring: usage error)")
	addr := flag.String("addr", "", "drive a renameserve wire server at this address instead of in-process pools (native runtime only)")
	ringPath := flag.String("ring", "", "drive a renameserve cluster described by this ring file, routing ops by key across its nodes (native runtime only)")
	deadline := flag.Duration("deadline", 0, "per-batch server-side processing budget over -addr/-ring (0 = none); with server admission control, also bounds how long a queued op may wait before it is shed")
	traceK := flag.Int("trace", 0, "arm end-to-end tracing over -addr/-ring and print the N slowest traced chains with their per-hop spans after the run; every frame then carries a stage echo (the report's stages row) and 1-in-64 trace ids record spans")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	flag.Parse()

	if *list {
		fmt.Printf("%-12s %s\n", "scenario", "description")
		for _, s := range renaming.LoadCatalog() {
			fmt.Printf("%-12s %s\n", s.Name, s.Note)
		}
		return
	}

	s, ok := renaming.FindScenario(*scenario)
	if !ok {
		fmt.Fprintf(os.Stderr, "renameload: unknown scenario %q; available:", *scenario)
		for _, c := range renaming.LoadCatalog() {
			fmt.Fprintf(os.Stderr, " %s", c.Name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	if *rate > 0 {
		if s.Arrival.Rate > 0 && s.Arrival.Peak > 0 {
			s.Arrival.Peak *= *rate / s.Arrival.Rate // keep the burst/ramp shape
		}
		s.Arrival.Rate = *rate
	}
	if *duration > 0 {
		s.Duration = *duration
	}
	if *workers > 0 {
		s.Workers = *workers
	}
	if *ops > 0 {
		s.Ops = *ops
	}
	if *seed > 0 {
		s.Seed = *seed
	}
	switch {
	case *faults == "none":
		s.Faults = nil
	case *faults != "":
		plan, err := renaming.ParseFaultPlan(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "renameload: -faults:", err)
			os.Exit(2)
		}
		s.Faults = plan
	}

	remote := *addr != "" || *ringPath != ""
	var r *renaming.LoadReport
	switch {
	case *addr != "" && *ringPath != "":
		fmt.Fprintln(os.Stderr, "renameload: -addr and -ring are mutually exclusive (one server or one cluster, not both)")
		os.Exit(2)
	case remote && *runtimeName != "native":
		fmt.Fprintln(os.Stderr, "renameload: -addr/-ring drive live servers and need the native runtime (drop -runtime sim)")
		os.Exit(2)
	case remote && *faults != "" && *faults != "none":
		// An explicit plan over the wire is a contradiction, not a
		// preference: fault plans arm in-process wave processes, and
		// silently dropping what the user asked for would misreport the
		// run. (-faults none still works — it disarms the scenario's own
		// plan; catalog-armed plans are stripped with a note below.)
		fmt.Fprintln(os.Stderr, "renameload: -faults cannot combine with -addr/-ring: fault plans arm in-process wave processes and do not travel over the wire (use -faults none to disarm a scenario's own plan)")
		os.Exit(2)
	case remote && s.Phased && s.Mix.Wave > 0:
		// Phased waves run in process only: they check a private phased
		// counter out and arm the scenario's plan, and the wire has no
		// phased-wave op. Sending them as rename waves would misreport the
		// run.
		fmt.Fprintf(os.Stderr, "renameload: scenario %q runs phased-counter waves, which run in process only: the wire has no phased-wave op (drop -addr/-ring, or pick a scenario without waves)\n", s.Name)
		os.Exit(2)
	case *traceK > 0 && !remote:
		fmt.Fprintln(os.Stderr, "renameload: -trace follows operations across the wire and needs -addr or -ring (in-process runs have no hops to trace)")
		os.Exit(2)
	case remote:
		if s.Faults != nil {
			fmt.Fprintln(os.Stderr, "renameload: note: fault plans do not travel over the wire; remote waves run fault-free")
			s.Faults = nil
		}
		var col *renaming.TraceCollector
		if *traceK > 0 {
			col = renaming.NewTraceCollector()
			col.Arm(64)
			defer col.Close()
		}
		var rem renaming.RemoteTransport
		if *ringPath != "" {
			ring, err := renaming.LoadClusterRing(*ringPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "renameload:", err)
				os.Exit(2)
			}
			c, err := renaming.DialCluster(ring, 5*time.Second)
			if err != nil {
				fmt.Fprintln(os.Stderr, "renameload:", err)
				os.Exit(1)
			}
			defer c.Close()
			c.SetOpDeadline(*deadline)
			if col != nil {
				c.SetTrace(col)
			}
			rem = c
		} else {
			c, err := renaming.DialWire(*addr, 5*time.Second)
			if err != nil {
				fmt.Fprintln(os.Stderr, "renameload:", err)
				os.Exit(1)
			}
			defer c.Close()
			c.SetOpDeadline(*deadline)
			if col != nil {
				c.SetTrace(col, -1)
			}
			rem = c
		}
		r = renaming.RunScenarioRemote(s, rem)
		if col != nil {
			// Chains go to stderr so -json consumers still read a clean
			// report from stdout.
			col.Fold()
			fmt.Fprintf(os.Stderr, "slowest traced chains (client side; server-side spans for the same trace ids are on each node's /trace):\n")
			col.WriteChains(os.Stderr, *traceK, renaming.WireOpName)
		}
	case *runtimeName == "native":
		r = renaming.RunScenario(s, nil)
	case *runtimeName == "sim":
		// Runs twice; the report's verdict fails unless the runs match
		// bit-for-bit modulo wall clock — the determinism contract.
		r, _ = renaming.SimReplayMatches(s, s.Seed)
	default:
		fmt.Fprintf(os.Stderr, "renameload: unknown -runtime %q (native | sim)\n", *runtimeName)
		os.Exit(2)
	}

	if *jsonOut {
		os.Stdout.Write(r.JSON())
	} else {
		r.Fprint(os.Stdout)
	}
	if r.Verdict != "ok" {
		fmt.Fprintf(os.Stderr, "renameload: verdict: %s\n", r.Verdict)
		os.Exit(1)
	}
}
