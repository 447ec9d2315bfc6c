package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling goroutine until t. The runtime's timers
// wake sub-millisecond sleeps only on millisecond boundaries when the
// process is otherwise idle; nanosleep on the goroutine's thread wakes
// within the kernel's timer slack (tens of microseconds), so the
// open-loop schedule is kept to that resolution. The runtime hands the
// processor to other goroutines while the thread sleeps.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop re-checks the deadline
	}
}
