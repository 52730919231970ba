//go:build !linux

package main

import "time"

var start = time.Now()

// threadCPU falls back to the wall clock where the thread CPU clock is not
// wired up.
func threadCPU() time.Duration { return time.Since(start) }
