package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// On a shared virtual host the hypervisor runs other guests on this
// guest's CPUs now and then. That stolen time slows every layer at once.
// The benchmark cannot undo it, so it prints the host's steal share
// during each set-up and during the measured run beside the result, to
// tell a slow host from a slow program.

// cpuTimes is the host's cumulative CPU time, in clock ticks.
type cpuTimes struct {
	total, steal uint64
	ok           bool
}

// readCPU reads the aggregate line of /proc/stat ("cpu user nice system
// idle iowait irq softirq steal ..."); ok is false where it is missing.
func readCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
	}
	t.steal, _ = strconv.ParseUint(f[8], 10, 64)
	t.ok = true
	return t
}

// stealSince returns the share of host CPU time stolen between prev and
// t, 0 when either reading is missing.
func (t cpuTimes) stealSince(prev cpuTimes) float64 {
	if !t.ok || !prev.ok || t.total <= prev.total {
		return 0
	}
	return float64(t.steal-prev.steal) / float64(t.total-prev.total)
}

// processCPU returns the CPU time all the process's threads have used.
// A guest kernel with paravirtual steal accounting leaves out the time
// the hypervisor gave this guest's CPUs to others.
func processCPU() time.Duration {
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
