package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// cpuNow is the process's user plus system CPU time in nanoseconds,
// over every thread: mirrors, server and load share the process.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// heapLive is the heap the last garbage collection found in use: live
// objects, without the garbage awaiting the next cycle, whose amount
// depends on where collections happen to fall. Reading it does not stop
// the world.
func heapLive() uint64 {
	metrics.Read(heapSample)
	if heapSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return heapSample[0].Value.Uint64()
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

// readCPUTimes reads /proc/stat; ok is false where it is unavailable.
func readCPUTimes() (t cpuTimes, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return t, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return t, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return t, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is left out.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return t, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealPct is the share of CPU time the hypervisor stole between two
// readings, in percent.
func stealPct(a, b cpuTimes) float64 {
	return 100 * ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// healthLine describes the host and toolchain a run measured on.
func healthLine(seed int64, steal float64) string {
	return fmt.Sprintf("health: nproc=%d GOMAXPROCS=%d go=%s cpu=%q seed=%d steal_pct=%.2f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), seed, steal)
}
