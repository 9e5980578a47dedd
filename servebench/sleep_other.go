//go:build !linux

package main

import "time"

// sleepPrecise falls back to the runtime timer where nanosleep is not
// available through package syscall.
func sleepPrecise(d time.Duration) { time.Sleep(d) }
