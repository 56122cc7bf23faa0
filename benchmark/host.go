package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostStamp identifies where and how a set of numbers was taken. It is
// printed with every run and stored in every results file; -compare
// refuses to mix sets whose cores differ.
type hostStamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	Date       string  `json:"date"`
}

func newHostStamp(seed int64, seconds float64, quick bool) hostStamp {
	return hostStamp{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Quick:      quick,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

func (h hostStamp) String() string {
	return fmt.Sprintf("commit=%s %s %s/%s cpu=%q nproc=%d GOMAXPROCS=%d seed=%d seconds=%g quick=%v date=%s",
		h.Commit, h.GoVersion, h.GOOS, h.GOARCH, h.CPUModel, h.NProc, h.GOMAXPROCS, h.Seed, h.Seconds, h.Quick, h.Date)
}

// gitCommit returns the checkout's short commit, or "unknown" outside a
// git repository (the driver's checkouts are plain directories).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

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

// hostSnap is a point-in-time reading of the process's resource
// counters; two snapshots bracket a timed phase.
type hostSnap struct {
	cpu       time.Duration
	allocB    uint64
	mallocs   uint64
	gcCPUFrac float64
}

func snapHost() hostSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSnap{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:    ms.TotalAlloc,
		mallocs:   ms.Mallocs,
		gcCPUFrac: ms.GCCPUFraction,
	}
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (VmHWM), falling back to getrusage's Maxrss.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// hostMetrics turns the resource use summed over the untraced timed
// units into the host.* per-layer metrics for ops operations.
func hostMetrics(m metricSet, busy hostSnap, ops int) {
	n := float64(max(ops, 1))
	m.set("host.ops", float64(ops))
	m.set("host.cpu_ms_per_op", float64(busy.cpu)/float64(time.Millisecond)/n)
	m.set("host.alloc_kb_per_op", float64(busy.allocB)/1024/n)
	m.set("host.mallocs_per_op", float64(busy.mallocs)/n)
	m.set("host.peak_rss_mb", peakRSSMB())
	m.set("host.gc_cpu_frac", busy.gcCPUFrac)
}
