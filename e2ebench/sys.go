package main

import (
	"bufio"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the user plus system CPU time the process has used.
// Unlike wall time it does not grow when the host steals the CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the operating system and restarts
// the kernel's count of the process's peak resident set (VmHWM) from the
// current size, so that a later peakRSSBytes covers only what ran in
// between. It reports false where /proc/self/clear_refs is unavailable;
// peakRSSBytes then covers the whole process.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSBytes returns VmHWM from /proc/self/status, falling back to
// ru_maxrss. Linux reports both in KiB.
func peakRSSBytes() int64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseInt(f[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}

// memCounters returns the bytes the Go heap has allocated and the GC
// cycles completed since the process started. runtime/metrics reads
// them without stopping the world, unlike runtime.ReadMemStats.
func memCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in clock ticks.
type hostCPU struct {
	total, steal uint64
	ok           bool
}

// readHostCPU samples /proc/stat; ok is false where it is unavailable.
func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostCPU{}
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var c hostCPU
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	c.ok = true
	return c
}

// stealShare is the share of all CPU ticks between a and b that the
// hypervisor gave to other guests; -1 when /proc/stat was unreadable.
func stealShare(a, b hostCPU) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
