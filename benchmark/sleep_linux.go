package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling goroutine's thread in nanosleep(2).
// The Go runtime's own timers fire with up to a millisecond of lag when
// the process is otherwise idle (its epoll wait takes whole
// milliseconds), which is more than a cache-hit request takes; an
// open-loop generator paced by them would mostly measure that lag.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		// Preemption signals interrupt the sleep; resume with what is left.
		if err := syscall.Nanosleep(&ts, &ts); err != syscall.EINTR {
			return
		}
	}
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
