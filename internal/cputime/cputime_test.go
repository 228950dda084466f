package cputime

import "testing"

func TestThreadCountsBusyWork(t *testing.T) {
	if !Supported {
		t.Skip("no per-thread CPU clock on this platform")
	}
	sink := 0
	d, ok := Thread(func() {
		for i := 0; i < 50_000_000; i++ {
			sink += i ^ (sink >> 3)
		}
	})
	if !ok || d <= 0 {
		t.Fatalf("Thread = %v, %v; want a positive duration", d, ok)
	}
	_ = sink
}
