package main

import (
	"syscall"
	"time"
)

// processCPU is the user plus system CPU time every thread of the
// process has used so far. Linux derives both from the scheduler's
// nanosecond run-time account, so the sum is exact to the microsecond
// getrusage reports in, and it advances only while the process is on a
// CPU: time the hypervisor or another process takes away is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
