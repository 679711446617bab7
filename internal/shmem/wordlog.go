//go:build wordlog

package shmem

import "sync/atomic"

// WordHook, when set, sees every native register step in builds with the
// wordlog tag: the proc, the register's word, the op, and the value the
// step read or wrote (for a CAS, the value it offered). A test sets it
// between executions to log two walks that must take the same steps in
// the same order.
var WordHook func(p Proc, w *atomic.Uint64, op Op, v uint64)

// LogWord passes one native register step to WordHook and returns v.
func LogWord(p Proc, w *atomic.Uint64, op Op, v uint64) uint64 {
	if WordHook != nil {
		WordHook(p, w, op, v)
	}
	return v
}
