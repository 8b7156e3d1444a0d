package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantileBand is the half-width, in quantile units, of the band of order
// statistics a quantile averages.  Averaging the samples ranked within half
// a percentile point of q steadies a tail estimate that a single order
// statistic leaves at the mercy of a few samples.
const quantileBand = 0.005

// quantile estimates the q-quantile of samples as the mean of the order
// statistics ranked within quantileBand of q (at least the nearest rank),
// without reordering the caller's slice.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(p float64) int {
		return min(max(int(p*float64(len(s))+0.5)-1, 0), len(s)-1)
	}
	lo, hi := rank(q-quantileBand), rank(q+quantileBand)
	var sum time.Duration
	for _, v := range s[lo : hi+1] {
		sum += v
	}
	return sum / time.Duration(hi-lo+1)
}

// median of float64 values (mean of the middle pair for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procCounters is one reading of the process-wide runtime and OS counters.
// Every per-request figure is a delta between two readings taken around a
// measurement window.
type procCounters struct {
	cpu           time.Duration // user+sys, getrusage(RUSAGE_SELF)
	vcsw, ivcsw   int64
	syscr, syscw  int64 // /proc/self/io
	allocs        uint64
	gcCPU, allCPU float64
	mutexWait     float64
	sched         *metrics.Float64Histogram
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sync/mutex/wait/total:seconds"},
	{Name: "/sched/latencies:seconds"},
}

func readCounters() procCounters {
	var c procCounters
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		c.vcsw, c.ivcsw = ru.Nvcsw, ru.Nivcsw
	}
	c.syscr, c.syscw = readProcIO()
	samples := make([]metrics.Sample, len(runtimeSamples))
	copy(samples, runtimeSamples)
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Name {
		case "/gc/heap/allocs:objects":
			if s.Value.Kind() == metrics.KindUint64 {
				c.allocs = s.Value.Uint64()
			}
		case "/cpu/classes/gc/total:cpu-seconds":
			c.gcCPU = float64Value(s)
		case "/cpu/classes/total:cpu-seconds":
			c.allCPU = float64Value(s)
		case "/sync/mutex/wait/total:seconds":
			c.mutexWait = float64Value(s)
		case "/sched/latencies:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				c.sched = s.Value.Float64Histogram()
			}
		}
	}
	return c
}

func float64Value(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat's counters.
const clockTicks = 100

// readSteal returns the machine's cumulative steal time from /proc/stat, in
// clock ticks: time the hypervisor ran something else while this machine's
// CPUs had work (zero where the file is unavailable).
func readSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// readProcIO returns the syscr/syscw read- and write-syscall counts of
// /proc/self/io (zero where the file is unavailable).
func readProcIO() (syscr, syscw int64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// counterDelta is the change of procCounters across one window; deltas of
// several windows add.
type counterDelta struct {
	CPU              time.Duration
	VCSW, IVCSW      int64
	SysCR, SysCW     int64
	Allocs           uint64
	GCCPU, AllCPU    float64
	MutexWaitSeconds float64
	// sched counts goroutine scheduling latencies (runnable to running)
	// per bucket of schedBuckets.
	sched        []uint64
	schedBuckets []float64
}

func (a procCounters) delta(b procCounters) counterDelta {
	d := counterDelta{
		CPU: b.cpu - a.cpu, VCSW: b.vcsw - a.vcsw, IVCSW: b.ivcsw - a.ivcsw,
		SysCR: b.syscr - a.syscr, SysCW: b.syscw - a.syscw,
		Allocs: b.allocs - a.allocs, GCCPU: b.gcCPU - a.gcCPU, AllCPU: b.allCPU - a.allCPU,
		MutexWaitSeconds: b.mutexWait - a.mutexWait,
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		d.schedBuckets = b.sched.Buckets
		d.sched = make([]uint64, len(b.sched.Counts))
		for i := range d.sched {
			d.sched[i] = b.sched.Counts[i] - a.sched.Counts[i]
		}
	}
	return d
}

func (a counterDelta) add(b counterDelta) counterDelta {
	a.CPU += b.CPU
	a.VCSW += b.VCSW
	a.IVCSW += b.IVCSW
	a.SysCR += b.SysCR
	a.SysCW += b.SysCW
	a.Allocs += b.Allocs
	a.GCCPU += b.GCCPU
	a.AllCPU += b.AllCPU
	a.MutexWaitSeconds += b.MutexWaitSeconds
	if a.sched == nil {
		a.sched, a.schedBuckets = append([]uint64(nil), b.sched...), b.schedBuckets
	} else if len(a.sched) == len(b.sched) {
		for i := range a.sched {
			a.sched[i] += b.sched[i]
		}
	}
	return a
}

// SchedP99 is the p99 goroutine scheduling latency, read as the upper edge
// of the histogram bucket holding it (the lower edge for the unbounded last
// bucket).
func (a counterDelta) SchedP99() time.Duration {
	var total uint64
	for _, n := range a.sched {
		total += n
	}
	want := uint64(float64(total)*0.99 + 0.5)
	var cum uint64
	for i, n := range a.sched {
		cum += n
		if total > 0 && cum >= want {
			edge := a.schedBuckets[i+1]
			if math.IsInf(edge, 0) {
				edge = a.schedBuckets[i]
			}
			return time.Duration(edge * float64(time.Second))
		}
	}
	return 0
}

// hostFingerprint identifies the machine and build a result was measured
// on; every result record carries it.
func hostFingerprint(seed int64) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":  cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"seed":       seed,
	}
}
