package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/golden"
)

// TestTranscriptDigests pins the simulated transcripts of renametrace -k 7
// -seed S -adversary A -crash '2@15,4@60' -json for seeds 1 and 9 and every
// adversary: a transcript is a pure function of its seed, adversary and
// crash plan, so its SHA-256 digest must match testdata/digests.txt (the
// twelve transcripts run to about 560 KB, so only their digests are kept).
// A change that moves a schedule on purpose deletes the file, runs the
// test once to write it anew, and says why.
func TestTranscriptDigests(t *testing.T) {
	var got bytes.Buffer
	for _, seed := range []uint64{1, 9} {
		for _, adv := range []string{"roundrobin", "random", "sequential", "anticoin", "laggard", "oscillator"} {
			var out bytes.Buffer
			args := []string{"-k", "7", "-seed", strconv.FormatUint(seed, 10), "-adversary", adv, "-crash", "2@15,4@60", "-json"}
			if err := run(args, &out); err != nil {
				t.Fatalf("seed %d adversary %s: %v", seed, adv, err)
			}
			fmt.Fprintf(&got, "seed=%d adversary=%s sha256=%x bytes=%d\n", seed, adv, sha256.Sum256(out.Bytes()), out.Len())
		}
	}
	golden.Check(t, "testdata/digests.txt", got.Bytes())
}
