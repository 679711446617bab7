package load

import (
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// keyRecorder is a fake Remote that records every op's routing key and
// argument.
type keyRecorder struct {
	mu   sync.Mutex
	keys map[uint64]int // rename routing key -> ops
	bad  int            // renames whose shard argument differs from the key
}

func (r *keyRecorder) Op(code wire.OpCode, key, arg uint64) (uint64, error) {
	if code != wire.OpRename {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[key]++
	if arg != key {
		r.bad++
	}
	return 1, nil
}

// TestRunRemoteSpreadsUnkeyedOps: without skew, remote renames must not
// all carry one key. If they did, every wire op would land on one server
// shard and every cluster op on the node that owns that key.
func TestRunRemoteSpreadsUnkeyedOps(t *testing.T) {
	s := shortened(t, "steady", 10*time.Second)
	s.Workers = 3
	s.Ops = 300
	rec := &keyRecorder{keys: map[uint64]int{}}
	r := RunRemote(s, rec)
	if r.RemoteErrs != 0 {
		t.Fatalf("%d remote errors against a fake that never fails", r.RemoteErrs)
	}
	total, top := 0, 0
	for _, n := range rec.keys {
		total += n
		top = max(top, n)
	}
	if total == 0 {
		t.Fatal("no renames reached the remote")
	}
	if len(rec.keys) < 2 || 2*top > total {
		t.Fatalf("%d renames over %d distinct keys, busiest key %d: unkeyed ops are not spread",
			total, len(rec.keys), top)
	}
	if rec.bad != 0 {
		t.Fatalf("%d renames carried a shard argument other than their routing key", rec.bad)
	}
}

// codeRecorder is a fake Remote that counts the op codes it receives.
type codeRecorder struct {
	mu    sync.Mutex
	codes map[wire.OpCode]int
}

func (r *codeRecorder) Op(code wire.OpCode, _, _ uint64) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.codes[code]++
	return 0, nil
}

// TestRunRemotePhasedWavesNotSent: the wire has no phased-wave op, and a
// server runs OpWave on the rename pool. A remote phased-churn run must
// therefore send no OpWave, count each of its waves as a failed remote
// op, and fail its verdict, while its Inc/Read go out as phased ops and
// nothing else goes out.
func TestRunRemotePhasedWavesNotSent(t *testing.T) {
	s := shortened(t, "phased-churn", 10*time.Second)
	s.Faults = nil
	s.Arrival.Rate = 4000
	s.Ops = 200
	rec := &codeRecorder{codes: map[wire.OpCode]int{}}
	r := RunRemote(s, rec)
	if n := rec.codes[wire.OpWave]; n != 0 {
		t.Fatalf("%d phased waves went over the wire as rename waves", n)
	}
	if r.Waves == 0 {
		t.Fatal("the mix drew no waves")
	}
	if r.RemoteErrs != r.Waves {
		t.Fatalf("%d remote errors for %d unsendable waves", r.RemoteErrs, r.Waves)
	}
	if r.Verdict == "ok" {
		t.Fatal("a remote run that could not send its waves passed its verdict")
	}
	if uint64(rec.codes[wire.OpPhasedInc]) != r.Incs || uint64(rec.codes[wire.OpPhasedRead]) != r.Reads {
		t.Fatalf("%d incs and %d reads went out as %v", r.Incs, r.Reads, rec.codes)
	}
	if len(rec.codes) != 2 {
		t.Fatalf("ops other than phased Inc/Read went out: %v", rec.codes)
	}
}
