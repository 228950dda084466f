//go:build !linux

package cputime

import "time"

// Supported reports whether Thread can measure on this platform.
const Supported = false

func threadTime() (time.Duration, bool) { return 0, false }
