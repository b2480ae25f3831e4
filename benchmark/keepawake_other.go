//go:build !linux

package main

import (
	"fmt"
	"os"
)

// startKeepAwake needs Linux's SCHED_IDLE; elsewhere the run goes on without.
func startKeepAwake() (cpus int, stop func()) {
	fmt.Fprintln(os.Stderr, "benchmark: keep-awake off: needs linux")
	return 0, func() {}
}
