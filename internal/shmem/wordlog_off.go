//go:build !wordlog

package shmem

import "sync/atomic"

// LogWord returns v. Under the wordlog build tag it also passes the step
// to a test's hook (see wordlog.go); here it inlines away.
func LogWord(p Proc, w *atomic.Uint64, op Op, v uint64) uint64 { return v }
