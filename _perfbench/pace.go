package main

import (
	"syscall"
	"time"
)

// timerSlack is the kernel's default timer slack for a thread: a nanosleep
// wakes up to this much late.
const timerSlack = 55 * time.Microsecond

// sleepUntil waits for t. time.Sleep parks on the runtime's network poller,
// which on an idle process wakes at millisecond granularity, far coarser
// than the open loop's 100 µs spacing; a nanosleep that undershoots by the
// timer slack, then a short spin, keeps the generator within microseconds
// of its schedule.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is finished by the spin below
	}
	for time.Now().Before(t) {
	}
}
