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
