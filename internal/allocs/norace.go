//go:build !race

package allocs

// Race reports whether the race detector is built in (see race.go).
const Race = false
