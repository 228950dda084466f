package cputime

import (
	"syscall"
	"time"
	"unsafe"
)

// Supported reports whether Thread can measure on this platform.
const Supported = true

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID. The clock includes the
// running slice to the nanosecond; getrusage(RUSAGE_THREAD) only advances
// at scheduler ticks, so a sub-millisecond call could read as nothing.
const clockThreadCPUTime = 3

func threadTime() (time.Duration, bool) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}
