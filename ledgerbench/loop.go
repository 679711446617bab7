package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Input sizes.
const (
	renameKeys    = 1 << 16 // seeded rename key table, cycled by the stream
	sweepRanges   = 64      // seeded sweep seed ranges, cycled by the jobs
	sweepSeeds    = 1       // seeds per sweep job
	readsPerBatch = 16      // PhasedReads per 64-op count batch (3:1 incs to reads)
	incsPerBatch  = batchOps - readsPerBatch
	countWarmup   = 64 // warm-up requests per count set-up
	// A lap's 400K increments keep about 240 MB of counter live at one P
	// (608 B each), so the counter's growth dominates peak_rss_mb.
	lapBatches = 8334 // lapSlices × 1389
	lapIncs    = lapBatches * incsPerBatch
)

// inputs is everything generated from the workload seed. The layers
// receive only these.
type inputs struct {
	seed uint64
	// keys is the rename key table; request n renames keys
	// [n·64, n·64+64) modulo the table.
	keys []uint64
	// firstSeeds are the first seeds of the sweep jobs' seed ranges.
	firstSeeds []uint64
	// masks[n] marks the PhasedRead positions of count request n: the
	// countWarmup warm-up requests first, then a lap's lapBatches.
	masks []uint64

	sweep []*sweepJob // built on first use (reference runs)
}

// splitmix is the benchmark's own input generator (SplitMix64), kept here
// so that no change to the program can change the inputs.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newInputs(seed uint64) *inputs {
	in := &inputs{seed: seed}
	r := splitmix(seed)
	in.keys = make([]uint64, renameKeys)
	for i := range in.keys {
		in.keys[i] = r.next()
	}
	in.firstSeeds = make([]uint64, sweepRanges)
	for i := range in.firstSeeds {
		in.firstSeeds[i] = 1 + r.next()>>20
	}
	in.masks = make([]uint64, countWarmup+lapBatches)
	var pos [batchOps]int
	for i := range in.masks {
		for j := range pos {
			pos[j] = j
		}
		// Partial Fisher–Yates: the first readsPerBatch slots are the reads.
		var m uint64
		for j := 0; j < readsPerBatch; j++ {
			k := j + int(r.next()%uint64(batchOps-j))
			pos[j], pos[k] = pos[k], pos[j]
			m |= 1 << pos[j]
		}
		in.masks[i] = m
	}
	return in
}

// span is one traced call into a layer. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	req, id, parent uint64
	layer           string
	start, end      int64
}

// tracer keeps the traced run's spans in memory; write dumps them at the
// end, one line per span. Single-goroutine: only the goroutines that issue requests record.
type tracer struct {
	epoch time.Time
	spans []span
	ids   uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// reserve returns a fresh span id, for a parent recorded after its
// children.
func (t *tracer) reserve() uint64 {
	t.ids++
	return t.ids
}

// record stores one span; id 0 draws a fresh one.
func (t *tracer) record(id, req, parent uint64, layer string, start, end time.Time) uint64 {
	if id == 0 {
		id = t.reserve()
	}
	t.spans = append(t.spans, span{req, id, parent, layer, t.at(start), t.at(end)})
	return id
}

// sum returns the total duration and count of spans of one layer recorded
// since index from.
func (t *tracer) sum(layer string, from int) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans[from:] {
		if s.layer == layer {
			d += time.Duration(s.end - s.start)
			n++
		}
	}
	return d, n
}

// write creates dir/file and writes the spans into it, one per line.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(bw, "req\tid\tparent\tlayer\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.req, s.id, s.parent, s.layer, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// request is one in-flight slot of a closed loop; cluster.Batch and
// netserve.Batch both are.
type request interface {
	Send() error
	Wait() ([]uint64, error)
}

// loop drives len(slots) requests in flight from one goroutine: a slot's
// next request is built and sent only after its previous one completed, so
// the load never outruns the system.
type loop struct {
	slots []request
	// fill builds request n into slot s.
	fill func(s int, n int64)
	// check accounts request n's reply into w.
	check func(w *window, s int, n int64, vals []uint64, err error)
	// layer prefixes the add/send/wait span names ("cluster", "netserve").
	layer string
}

// run issues requests 0, 1, … while more(n) holds, records each one's
// Send→Wait latency in w, and returns once every issued request completed.
func (l *loop) run(w *window, more func(n int64) bool, tr *tracer) {
	k := len(l.slots)
	seq := make([]int64, k)
	sent := make([]time.Time, k)
	begin := make([]time.Time, k)
	rid := make([]uint64, k)
	live := make([]bool, k)
	addL, sendL, waitL := l.layer+".add", l.layer+".send", l.layer+".wait"
	var n int64
	issue := func(s int) {
		if tr != nil {
			begin[s] = time.Now()
			rid[s] = tr.reserve()
		}
		l.fill(s, n)
		seq[s] = n
		n++
		sent[s] = time.Now()
		err := l.slots[s].Send()
		if tr != nil {
			now := time.Now()
			tr.record(0, uint64(seq[s]), rid[s], addL, begin[s], sent[s])
			tr.record(0, uint64(seq[s]), rid[s], sendL, sent[s], now)
		}
		if err != nil {
			// The request never left; nothing will complete it.
			l.check(w, s, seq[s], nil, err)
			return
		}
		live[s] = true
	}
	for s := 0; s < k && more(n); s++ {
		issue(s)
	}
	for {
		progress := false
		for s := 0; s < k; s++ {
			if !live[s] {
				continue
			}
			progress = true
			live[s] = false
			waitStart := time.Now()
			vals, err := l.slots[s].Wait()
			done := time.Now()
			w.lat = append(w.lat, done.Sub(sent[s]))
			w.requests++
			w.tick(done)
			if tr != nil {
				tr.record(0, uint64(seq[s]), rid[s], waitL, waitStart, done)
				tr.record(rid[s], uint64(seq[s]), 0, "request", begin[s], done)
			}
			l.check(w, s, seq[s], vals, err)
			if more(n) {
				issue(s)
			}
		}
		if !progress {
			return
		}
	}
}
