// Command ledgerbench is the repository's benchmark: three closed-loop
// workloads driven from one process through the layers' exported APIs,
// every reply checked, six end-to-end metrics per workload, and a separate
// traced run that splits the cost into a per-layer ledger.
//
// Run it from the repository root (run.sh builds the binary first):
//
//	bash ledgerbench/run.sh --workload cluster-rename --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it repeat the
// metrics for a reader, with units and request counts.
//
// # Workloads
//
// The seed determines every input: the rename keys, the list of sweep seed
// ranges, and the order of increments and reads in the count batches. The
// layers receive only these generated inputs; internal/load's generators are
// not used, so a change to that harness cannot change what is measured.
//
// sweep: back-to-back sweep jobs (sweep.New + Run) over the five
// sweep.Objects() × sweep.DefaultAdvs() × sweep.DefaultPlans(). Each job
// sweeps a short seed range (one seed: 90 executions), taken in turn from
// a seeded list of 64 ranges; a job takes 10–15 milliseconds. This is
// the only workload where the simulator and the algorithms (core, sortnet,
// splitter, tas, and exec's crash plans) do almost all the work and no
// network layer runs. The jobs run one worker (see CPUs below).
//
// cluster-rename: a 2-node ring on loopback (netserve servers over
// load.NewTarget, joined by cluster.Dial). One goroutine keeps two
// pipelined 64-op cluster.Batches of Rename on seeded keys in flight. It
// runs the serving hot path with sim and phase idle: serve checkout and
// reset, the core native rename, the wire codec, netserve sessions, loopback
// syscalls and cluster scatter-gather. The ring has two nodes, not three,
// because three connections would exceed the two CPUs. A run measures each
// of its set-ups in turn, for an equal share of --seconds, so that it
// samples several pool and heap layouts.
//
// wire-count: one connection to one server, two 64-op batches in flight,
// each holding PhasedInc and PhasedRead at 3:1 in a seeded order. The same
// netserve tier serves shared state here instead of per-op-reset pools, with
// writes beside reads, so a serving change that helps renames but costs
// counters shows; phase and maxreg do almost all the work. Per-op cost and
// live heap both grow with the count, so the workload is measured in laps:
// a lap is a fresh server driven through a fixed number of increments
// (lapIncs, about 400K), and a run repeats whole laps until --seconds of
// measured time have passed. A time-bounded lap would measure a different
// count range on a faster build. The lap is long enough that the counter's
// growth dominates peak_rss_mb: on one P an increment keeps 608 B live, so
// a lap holds about 240 MB (832 B on two Ps, where the native runtime pads
// registers to cache lines; see CPUs). One connection keeps the phase
// controller in Joined mode, so runs are not bimodal; a mode switch fails
// the run.
//
// # End-to-end metrics (--trace 0)
//
// An op is one wire op, or one simulated execution in sweep. A request is
// one batch round trip (Send→Wait), or one sweep job (New+Run).
//
// The measured window is cut into slices: forty equal time slices (each
// closing only once it holds 100 requests), or six equal slices per
// wire-count lap. Throughput, latency and CPU are computed per slice and
// reported as the interquartile mean over the slices: the quarter of slices
// at each end is dropped, so a disturbance of the shared machine that lasts
// a few slices does not move the result, and the middle half is averaged,
// so a run during which the machine's speed shifts reports a value between
// the two speeds instead of jumping to one of them.
//
//	metric            unit  definition
//	throughput_ops_s  1/s   ops completed ÷ slice time
//	p50_us            us    median request latency in the slice
//	p90_us            us    90th-percentile request latency in the slice
//	cpu_us_per_op     us    process user+sys CPU in the slice ÷ ops; client and servers share the process
//	setup_s           s     median over the run's set-ups of everything before the first measured
//	                        request: targets and pools, listen, dial, fixed warm-up
//	peak_rss_mb       MB    peak resident set of the process (VmHWM)
//
// The percentiles are printed with the request count and the fewest
// requests any slice has beyond them (at least ten, or the run fails).
// p90 rather than p99: over six 15 s cluster-rename runs, p99 varied by
// ±16% while p90 stayed within ±10%. Every wire-count lap starts from a
// heap returned to the OS, so each pays the same page faults, and
// peak_rss_mb shows one lap's heap.
//
// Every run counts ops attempted and ops failed. A failed op is a transport
// error, a wire error, or a reply that fails its check:
//
//   - sweep: the verdict is ok, and the job's Stable() report is
//     bit-identical to that job's reference run with two workers, so also
//     to every repeat of the job;
//   - cluster-rename: each name lies in the name range of the node that
//     Ring.Route(key) picks (names are 1-based, so the range's first value
//     is excluded too);
//   - wire-count: each PhasedRead equals the number of PhasedIncs sent
//     before it on the connection, and a final PhasedReadStrict equals the
//     total.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures the workload untraced, traced and untraced again,
// for a third of --seconds each (whole laps for wire-count), and then runs
// the ledger. The traced window records spans from this package around every
// call it makes into a layer (request id, span id, parent, layer, start,
// end); they are kept in memory and written out at the end, one line per
// span. The cluster and wire clients are armed with SetTrace, so each reply
// echoes its server stage times (Stages). The ledger replays the workload's
// own op stream through each layer in isolation, serially, and prints each
// layer's ns/op and allocs/op and the delta it adds; what no layer explains
// is ledger.unexplained_ns_per_op. BENCHMARK.json gives one per_layer list
// for all workloads, and a traced run reports all of it: a metric whose
// layer the workload does not run comes from the ledger of the workload
// that does, since each traced run replays all three op streams.
//
//	metric                        measured from outside as                           should move            on
//	sim.ns_per_step               Run time with NoHarvest ÷ report TotalSteps        throughput, cpu/op     sweep
//	core.steps_per_exec           TotalSteps ÷ Executions; exact, the paper's count  throughput             sweep
//	exec.crashes_per_exec         Crashes ÷ Executions; exact, must not change       none (injector guard)  sweep
//	sweep.harvest_us              per job, Run − Run with NoHarvest                  p50, p90               sweep
//	core.rename_ns                (GetKeyed+Rename+Put) − (GetKeyed+Put)             cpu/op, throughput     cluster-rename
//	serve.getput_ns               Pool.GetKeyed + Instance.Put (mostly the reset)    cpu/op, throughput     cluster-rename
//	serve.overflows, .retries     Pool.Stats() delta over the traced window          setup, peak RSS        cluster-rename
//	wire.codec_ns_per_op          AppendBatch + Parse + AppendReply + Parse          cpu/op                 cluster-rename, wire-count
//	wire.bytes_per_op             frame bytes, both directions, ÷ ops                cpu/op                 cluster-rename, wire-count
//	netserve.pipe_ns_per_op       Batch.Commit to a server on net.Pipe, minus the    cpu/op                 cluster-rename, wire-count
//	                              in-process and codec layers
//	netserve.loopback_ns_per_op   the same on loopback TCP, minus the pipe figure    throughput, p50        cluster-rename
//	netserve.srv_us, .queue_us,   stage echo per frame; net = RTT − srv              p50, p90               cluster-rename, wire-count
//	  .exec_us, .net_us
//	cluster.add_ns                spans around Batch.Add, per op                     p50, p90               cluster-rename
//	cluster.send_us, .wait_us     spans around Batch.Send and Wait, per request      p50, p90               cluster-rename
//	cluster.fanout_ns_per_op      2-node ring minus single-node loopback, same ops   throughput             cluster-rename
//	phase.inc_ns, .read_ns        phase.Pool.Inc and Read over a lap's count range   throughput, cpu/op     wire-count
//	phase.inc_alloc_b             MemStats.TotalAlloc delta per Inc                  cpu/op, p90            wire-count
//	phase.live_b_per_inc          live heap after GC ÷ increments                    peak RSS               wire-count
//	phase.mode_switches           Pool.Stats().Switches; nonzero fails the run       none (flags bimodal)   wire-count
//	go.gc_cycles, .gc_pause_us    runtime/metrics GC cycles and MemStats pause       p90                    wire-count
//	                              total, per million ops of the traced window
//	ledger.unexplained_ns_per_op  end-to-end ns/op − Σ layer figures                 none                   all
//	obs.overhead_pct              untraced vs traced throughput_ops_s                none; must stay small  all
//
// Each per-layer metric should move the listed end-to-end metric on its
// workload and leave the other workloads flat. Client and servers share the
// CPUs, so a layer's CPU saving moves cpu_us_per_op one for one, but moves
// throughput_ops_s only by that layer's share of the request's blocking
// path. A cluster-rename request waits for the slower of its two nodes, so
// cluster.wait_us sets p90_us. On wire-count, allocations and live heap add
// GC work, which moves p90_us and cpu_us_per_op before throughput.
//
// The ledger's end-to-end figure is the untraced windows' ns/op, the
// inverse of their throughput_ops_s. The layer passes run one request at a
// time while the workloads keep two in flight, so the unexplained remainder
// can be negative: it is the overlap no single layer owns. The pipe and the
// loopback rows are alternative transports under the same server, so the
// loopback delta is negative where loopback TCP is the cheaper of the two.
//
// # Why closed loops, and no waves
//
// Every workload is a closed loop with a fixed window: a request is sent
// only after an earlier one completed, from a fixed set of goroutines. There
// are no goroutine-spawning waves: an earlier benchmark's churn waves started
// 2–12 goroutines each on two CPUs and timed the scheduler, not the system.
// There are no open-loop arrivals either: renameload -scenario steady at 20K
// ops/s gives a p99 of 4.5–5.7 ms set by the generator's timer spin, while
// the same server's closed-loop batch p99 is about 0.3 ms.
//
// # CPUs
//
// Every workload runs on one P (GOMAXPROCS 1), with one goroutine issuing
// requests over at most two client connections; servers run in this
// process on loopback listeners. On a shared VM a process busy on two CPUs
// draws more of the host's CPU steal, and a job or request that waits on
// both suffers each stall, so two Ps measure the host more than the
// program. On a 2-vCPU VM, a two-worker sweep's throughput tracked steal
// (7.0K executions/s at 17% steal, 9.9K at 1%) while one worker stayed
// within 6.2–7.3K; wire-count's p90 spread over 1005–1306 µs on two Ps and
// 963–1083 µs on one; and two sets of ten 30 s cluster-rename runs on two
// Ps had throughput interquartile ranges of 32% and 19% of the median. The
// cost is that no workload measures the native runtime's padded register
// layout (it pads only when GOMAXPROCS > 1) or cross-CPU handoffs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Shapes shared by the workloads.
const (
	batchOps    = 64 // ops per wire request
	inFlight    = 2  // requests each issuing goroutine keeps in flight
	setupRounds = 5  // set-ups per run; setup_s is their median
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named traffic mix.
type workload struct {
	// measure sets up setupRounds times and measures a window of at least
	// d (whole laps for wire-count); tr non-nil arms tracing.
	measure func(in *inputs, d time.Duration, tr *tracer) (*window, error)
	// stack is the ledger of the workload's own op stream.
	stack func(in *inputs, run *ledgerRun) (*stack, error)
}

var workloads = map[string]workload{
	"sweep":          {measure: measureSweep, stack: sweepStack},
	"cluster-rename": {measure: measureRename, stack: renameStack},
	"wire-count":     {measure: measureCount, stack: countStack},
}

// ledgerOrder lists, per workload, the stacks whose metrics fill its traced
// run: its own first, then the others for the layers it does not run.
var ledgerOrder = map[string][]string{
	"sweep":          {"sweep", "cluster-rename", "wire-count"},
	"cluster-rename": {"cluster-rename", "sweep", "wire-count"},
	"wire-count":     {"wire-count", "cluster-rename", "sweep"},
}

// perLayer is the traced run's metric set (BENCHMARK.json per_layer).
var perLayer = []struct{ name, unit string }{
	{"sim.ns_per_step", "ns"},
	{"core.steps_per_exec", "steps"},
	{"exec.crashes_per_exec", "count"},
	{"sweep.harvest_us", "us"},
	{"core.rename_ns", "ns"},
	{"serve.getput_ns", "ns"},
	{"serve.overflows", "count"},
	{"serve.retries", "count"},
	{"wire.codec_ns_per_op", "ns"},
	{"wire.bytes_per_op", "B"},
	{"netserve.pipe_ns_per_op", "ns"},
	{"netserve.loopback_ns_per_op", "ns"},
	{"netserve.srv_us", "us"},
	{"netserve.queue_us", "us"},
	{"netserve.exec_us", "us"},
	{"netserve.net_us", "us"},
	{"cluster.add_ns", "ns"},
	{"cluster.send_us", "us"},
	{"cluster.wait_us", "us"},
	{"cluster.fanout_ns_per_op", "ns"},
	{"phase.inc_ns", "ns"},
	{"phase.read_ns", "ns"},
	{"phase.inc_alloc_b", "B"},
	{"phase.live_b_per_inc", "B"},
	{"phase.mode_switches", "count"},
	{"go.gc_cycles", "count/Mop"},
	{"go.gc_pause_us", "us/Mop"},
	{"ledger.unexplained_ns_per_op", "ns"},
	{"obs.overhead_pct", "%"},
}

func main() {
	name := flag.String("workload", "", "workload: sweep, cluster-rename or wire-count")
	seed := flag.Uint64("seed", 1, "workload seed: rename keys, sweep seed ranges, count op order")
	seconds := flag.Float64("seconds", 10, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and the ledger")
	out := flag.String("out", ".bench_build/ledgerbench", "directory for the traced run's span file")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ledgerbench: usage: --workload sweep|cluster-rename|wire-count --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(1) // see the package doc, CPUs
	in := newInputs(*seed)
	d := time.Duration(*seconds * float64(time.Second))

	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(*name, w, in, d, *out)
	} else {
		res, err = measuredRun(*name, w, in, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledgerbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledgerbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// window is one measured stretch of a workload plus its run's accounting.
// It is cut into slices — time slices of a time-bounded window, or six
// slices per wire-count lap — and the end-to-end metrics are interquartile
// means over the slices (see midMean).
type window struct {
	ops       int64 // ops completed in the measured window
	requests  int64
	attempted int64 // ops checked anywhere in the run (warm-ups included)
	failed    int64
	// lat holds the open slice's request latencies; cut reduces them to the
	// slice's quantiles and empties it, so memory does not grow with the
	// request count (and peak_rss_mb does not grow with speed).
	lat     []time.Duration
	elapsed time.Duration
	setups  []time.Duration
	slices  []slice
	// sliceLen is the time-slice length, sliceReqs the request count a
	// slice closes at; with both 0 a slice closes only on an explicit cut.
	sliceLen  time.Duration
	sliceReqs int
	curOps    int64
	curCPU    time.Duration
	curStart  time.Time
	// layers holds the per-layer metrics the traced window itself yields
	// (stage echo, spans, pool and GC deltas).
	layers map[string]metric
}

// slice is a contiguous part of a window: its ops, wall and CPU time, and
// its requests' latency quantiles.
type slice struct {
	ops, requests int64
	dur, cpu      time.Duration
	p50, p90      time.Duration
	beyond50      int // requests beyond p50
	beyond90      int // requests beyond p90
}

// Slice sizing: a time slice is a fortieth of the window, and closes only
// once it holds minSliceRequests requests, so that its p90 has at least
// ten requests beyond it. Many short slices give the interquartile mean
// many independent samples of a machine whose speed drifts from second to
// second.
const (
	timeSlices       = 40
	minSliceRequests = 100
)

func newWindow() *window { return &window{lat: make([]time.Duration, 0, 1<<12)} }

// begin opens a slice at now.
func (w *window) begin(now time.Time) {
	w.lat = w.lat[:0]
	w.curOps, w.curCPU, w.curStart = w.ops, cpuTime(), now
}

// cut closes the open slice at now and opens the next one.
func (w *window) cut(now time.Time) {
	cpu := cpuTime()
	slices.Sort(w.lat)
	sl := slice{
		ops:      w.ops - w.curOps,
		requests: int64(len(w.lat)),
		dur:      now.Sub(w.curStart),
		cpu:      cpu - w.curCPU,
	}
	if len(w.lat) > 0 {
		sl.p50, sl.beyond50 = quantile(w.lat, 0.50)
		sl.p90, sl.beyond90 = quantile(w.lat, 0.90)
	}
	w.slices = append(w.slices, sl)
	w.lat = w.lat[:0]
	w.curOps, w.curCPU, w.curStart = w.ops, cpu, now
}

// tick is called after every completed request.
func (w *window) tick(now time.Time) {
	byTime := w.sliceLen > 0 && now.Sub(w.curStart) >= w.sliceLen && len(w.lat) >= minSliceRequests
	if byTime || (w.sliceReqs > 0 && len(w.lat) >= w.sliceReqs) {
		w.cut(now)
	}
}

// finish closes a time-bounded window at now. The few requests that drain
// after the last full slice form no slice of their own: their latencies
// are dropped, and their time and ops are left out of every slice.
func (w *window) finish(now time.Time) {
	if len(w.lat) >= minSliceRequests || len(w.slices) == 0 {
		w.cut(now)
		return
	}
	w.lat = w.lat[:0]
}

// rate is the slices' interquartile mean throughput: the end-to-end
// throughput_ops_s.
func (w *window) rate() float64 {
	var thr []float64
	for _, sl := range w.slices {
		thr = append(thr, float64(sl.ops)/sl.dur.Seconds())
	}
	return midMean(thr)
}

// merge folds another window's check accounting into w.
func (w *window) merge(o *window) {
	w.attempted += o.attempted
	w.failed += o.failed
}

// join returns one window holding the measurements of w and o.
func (w *window) join(o *window) *window {
	j := &window{
		ops:      w.ops + o.ops,
		requests: w.requests + o.requests,
		elapsed:  w.elapsed + o.elapsed,
		setups:   append(slices.Clone(w.setups), o.setups...),
		slices:   append(slices.Clone(w.slices), o.slices...),
	}
	j.merge(w)
	j.merge(o)
	return j
}

// endToEnd computes the six end-to-end metrics and prints them for a reader.
func endToEnd(label string, w *window) (map[string]metric, error) {
	if w.ops == 0 || len(w.slices) == 0 {
		return nil, fmt.Errorf("%s: no requests completed in the window", label)
	}
	var thr, cpu, p50s, p90s, setups []float64
	for _, d := range w.setups {
		setups = append(setups, d.Seconds())
	}
	minBeyond50, minBeyond := int(w.requests), int(w.requests)
	for _, sl := range w.slices {
		if sl.requests == 0 || sl.ops == 0 {
			return nil, fmt.Errorf("%s: an empty slice", label)
		}
		minBeyond50 = min(minBeyond50, sl.beyond50)
		minBeyond = min(minBeyond, sl.beyond90)
		thr = append(thr, float64(sl.ops)/sl.dur.Seconds())
		cpu = append(cpu, us(sl.cpu)/float64(sl.ops))
		p50s = append(p50s, us(sl.p50))
		p90s = append(p90s, us(sl.p90))
	}
	if minBeyond < 10 {
		return nil, fmt.Errorf("%s: a slice has only %d requests beyond its p90; the window is too short", label, minBeyond)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("peak resident set: %w", err)
	}
	m := map[string]metric{
		"throughput_ops_s": {midMean(thr), "1/s"},
		"p50_us":           {midMean(p50s), "us"},
		"p90_us":           {midMean(p90s), "us"},
		"cpu_us_per_op":    {midMean(cpu), "us"},
		"setup_s":          {medianF(setups), "s"},
		"peak_rss_mb":      {rss, "MB"},
	}
	fmt.Printf("%s: window %.3f s in %d slices, %d requests, %d ops; attempted %d, failed %d\n",
		label, w.elapsed.Seconds(), len(w.slices), w.requests, w.ops, w.attempted, w.failed)
	fmt.Printf("  throughput_ops_s %.1f 1/s (slices' interquartile mean; whole window %.1f)\n",
		m["throughput_ops_s"].Value, float64(w.ops)/w.elapsed.Seconds())
	fmt.Printf("  p50_us %.2f us (slices' interquartile mean, %d requests; every slice has >= %d requests beyond its p50)\n",
		m["p50_us"].Value, w.requests, minBeyond50)
	fmt.Printf("  p90_us %.2f us (slices' interquartile mean, %d requests; every slice has >= %d requests beyond its p90)\n",
		m["p90_us"].Value, w.requests, minBeyond)
	fmt.Printf("  cpu_us_per_op %.4f us (slices' interquartile mean)\n", m["cpu_us_per_op"].Value)
	fmt.Printf("  setup_s %.4f s (median of %d set-ups: %s)\n", m["setup_s"].Value, len(w.setups), fmtList(setups, "%.4f"))
	fmt.Printf("  peak_rss_mb %.1f MB\n", m["peak_rss_mb"].Value)
	fmt.Printf("  slice throughputs: %s\n", fmtList(thr, "%.0f"))
	return m, nil
}

func fmtList(xs []float64, f string) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, f, x)
	}
	return b.String()
}

// measuredRun is the untraced run: end-to-end metrics only.
func measuredRun(name string, wl workload, in *inputs, d time.Duration) (*result, error) {
	w, err := wl.measure(in, d, nil)
	if err != nil {
		return nil, err
	}
	m, err := endToEnd(name, w)
	if err != nil {
		return nil, err
	}
	if _, ok := w.layers["phase.mode_switches"]; ok {
		fmt.Printf("  phase mode switches 0 (a switch fails the run)\n")
	}
	return &result{Correct: w.failed == 0, Attempted: w.attempted, Failed: w.failed, Metrics: m}, nil
}

// tracedRun measures the workload untraced, traced and untraced again, a
// third of d each, runs the ledger of all three op streams, and reports
// every per-layer metric. The untraced windows on both sides of the traced
// one cancel a steady drift of the machine's speed out of
// obs.overhead_pct.
func tracedRun(name string, wl workload, in *inputs, d time.Duration, out string) (*result, error) {
	third := d / 3
	before, err := wl.measure(in, third, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := wl.measure(in, third, tr)
	if err != nil {
		return nil, err
	}
	after, err := wl.measure(in, third, nil)
	if err != nil {
		return nil, err
	}
	plain := before.join(after)
	if _, err := endToEnd(name+" (untraced, before and after)", plain); err != nil {
		return nil, err
	}
	if _, err := endToEnd(name+" (traced)", traced); err != nil {
		return nil, err
	}
	acct := &window{}
	acct.merge(plain)
	acct.merge(traced)

	run := &ledgerRun{workload: name, tr: tr, acct: acct}
	stacks := map[string]*stack{}
	for _, sname := range ledgerOrder[name] {
		st, err := workloads[sname].stack(in, run)
		if err != nil {
			return nil, fmt.Errorf("%s ledger: %w", sname, err)
		}
		stacks[sname] = st
	}

	// The workload's own stack closes against its untraced end-to-end cost.
	own := stacks[name]
	e2e := 1e9 / plain.rate()
	unexplained := e2e - own.total()
	own.rows = append(own.rows,
		row{name: "end-to-end (1 / throughput_ops_s); delta = ledger.unexplained_ns_per_op", ns: e2e, allocs: -1, delta: unexplained})
	overhead := 100 * (plain.rate() - traced.rate()) / plain.rate()

	m := map[string]metric{
		"ledger.unexplained_ns_per_op": {unexplained, "ns"},
		"obs.overhead_pct":             {overhead, "%"},
	}
	sources := []map[string]metric{traced.layers}
	for _, sname := range ledgerOrder[name] {
		sources = append(sources, stacks[sname].metrics)
	}
	for _, pl := range perLayer {
		if _, ok := m[pl.name]; ok {
			continue
		}
		for _, src := range sources {
			if v, ok := src[pl.name]; ok {
				m[pl.name] = metric{v.Value, pl.unit}
				break
			}
		}
		if _, ok := m[pl.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", pl.name)
		}
	}

	for _, sname := range ledgerOrder[name] {
		stacks[sname].print()
	}
	fmt.Printf("obs.overhead_pct %.2f %% (untraced %.1f vs traced %.1f ops/s, slices' interquartile means)\n",
		overhead, plain.rate(), traced.rate())
	path, err := tr.write(out, fmt.Sprintf("spans-%s-seed%d.tsv", name, in.seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %s %.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return &result{Correct: acct.failed == 0, Attempted: acct.attempted, Failed: acct.failed, Metrics: m}, nil
}

// quantile returns the nearest-rank q-quantile of sorted and the number of
// samples strictly beyond its rank.
func quantile(sorted []time.Duration, q float64) (time.Duration, int) {
	rank := int(q*float64(len(sorted))+0.999999) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank], len(sorted) - 1 - rank
}

// midMean returns the interquartile mean of xs: the mean of its middle
// half once sorted (all of it below four values).
func midMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

func medianF(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the peak resident set of this process image: VmHWM
// from /proc/self/status. getrusage's ru_maxrss is not used because Linux
// carries it across exec, so it would report the launching process's peak
// whenever that is the larger.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM in /proc/self/status: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
