// Package cputime times a function by the CPU time of the OS thread that
// runs it. Within-run ratio tests use it instead of the wall clock: the
// packages of one `go test ./...` run concurrently, and a slice of wall
// time lost to a neighbour's test would skew one side of a ratio only.
package cputime

import (
	"runtime"
	"time"
)

// Thread runs f on the calling goroutine, locked to its OS thread, and
// returns the user plus system CPU time that thread spent in f. It reports
// false where the platform has no per-thread CPU clock (see Supported); f
// still runs. Work f hands to other goroutines is not counted.
func Thread(f func()) (time.Duration, bool) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, ok := threadTime()
	f()
	if !ok {
		return 0, false
	}
	t1, _ := threadTime()
	return t1 - t0, true
}
