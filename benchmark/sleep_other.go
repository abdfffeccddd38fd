//go:build !linux

package main

import "time"

// preciseSleep falls back to the runtime timer where nanosleep(2) is
// not available; see sleep_linux.go.
func preciseSleep(d time.Duration) { time.Sleep(d) }

// processCPU is not measured off Linux.
func processCPU() time.Duration { return 0 }
