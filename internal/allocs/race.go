//go:build race

package allocs

// Race reports whether the race detector is built in. Tests that pin
// memory over a long serial loop shorten the loop under the detector,
// which slows every step many times over.
const Race = true
