package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// environment is the header every run prints beside its metrics, so a
// number can be read against the host that produced it.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// NoisyHost is set when the 1-minute load average at the start
	// exceeds half the processors — something else was running. (The
	// load at the end is this run's own.) The numbers are reported
	// unchanged but should not be trusted for an A/B.
	NoisyHost bool `json:"noisy_host"`
}

func readEnvironment() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		LoadStart:  loadAverage(),
	}
}

func (e *environment) finish() {
	e.LoadEnd = loadAverage()
	e.NoisyHost = e.LoadStart > 0.5*float64(e.NProc)
}

// guardParallelism refuses a configuration that would oversubscribe the
// host: with more runnable rank/worker goroutines than processors the
// wall clock measures the scheduler.
func guardParallelism(ranks, workers int) error {
	if limit := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); ranks*workers > limit {
		return fmt.Errorf("ranks × workers = %d × %d exceeds the %d usable processors", ranks, workers, limit)
	}
	return nil
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

// loadAverage returns the 1-minute load average, or 0 where /proc does
// not offer it.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // malformed reads as 0: "unknown", not noisy
	return v
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM)
// in MB since the last resetPeakRSS, or since the process started. Each
// workload runs in its own process, so the figure belongs to that
// workload alone.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// resetPeakRSS restarts the kernel's high-water mark at the current
// resident set (Linux: "5" to /proc/self/clear_refs) and reports whether
// that worked. With it every epoch yields its own peak and peak_rss_mb
// goes through the epoch estimator like every other metric: the
// whole-process mark is the maximum over some hundred factorisations of
// how far the concurrent collector let the heap overshoot — an extreme
// value, which disagreed with itself by 13 % between runs where the
// median of per-epoch marks agrees to 2 %.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}
