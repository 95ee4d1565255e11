package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the per-run host record: what the numbers were measured on.
// Run-to-run drift on a shared host is large, so every run carries it and
// calibNs, a fixed CPU loop timed at start-up, which makes a slower host
// visible as such instead of as a regression.
type hostInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Start      string  `json:"start"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	CalibNs    float64 `json:"calib_ns_per_iter"`
}

func readHost() hostInfo {
	h := hostInfo{
		Start:      time.Now().UTC().Format(time.RFC3339),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		CalibNs:    calibrate(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed integer loop (best of five) in ns per iteration.
func calibrate() float64 {
	const iters = 2_000_000
	best := time.Duration(1 << 62)
	for r := 0; r < 5; r++ {
		x := uint64(r) + 0x9e3779b97f4a7c15
		t := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t); d < best {
			best = d
		}
		calibSink += x
	}
	return float64(best) / iters
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goCounters reads the runtime counters the go.* layer metrics difference.
type goCounters struct {
	allocs       uint64  // heap objects allocated
	gcCPU, total float64 // GC and total CPU seconds, as the runtime estimates them
}

var goSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGo() goCounters {
	s := append([]rtmetrics.Sample(nil), goSamples...)
	rtmetrics.Read(s)
	var c goCounters
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		c.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		c.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == rtmetrics.KindFloat64 {
		c.total = s[2].Value.Float64()
	}
	return c
}

// liveHeap forces full collections and reports the live heap in bytes.
// It collects twice: sync.Pool contents survive one collection in the
// pools' victim caches, and the first reading after set-up varied by
// about 20% with how much of them were still held.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
