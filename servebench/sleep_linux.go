package main

import (
	"syscall"
	"time"
)

// sleepPrecise blocks the calling thread in nanosleep. time.Sleep parks the
// goroutine on the runtime timer, which the network poller wakes at
// millisecond granularity; at hundreds of arrivals per second that lateness
// would be charged to every open-loop request.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR: the caller sleeps again
}
