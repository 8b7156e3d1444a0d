// Command perfbench is the repository's end-to-end benchmark.  It deploys
// one μSuite service in-process over loopback TCP, built from the service
// package's exported constructors, and drives it from a single open-loop
// dispatcher at fixed absolute rates:
//
//	perfbench --workload router-kv --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it prints
// the per-layer metrics, timed from outside the program around calls into
// each layer's public functions, and writes the spans as JSONL that
// cmd/traceview reads.  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

//go:embed config.json
var configJSON []byte

// config is the benchmark's fixed settings: per-workload rates and limits,
// and what each per-layer metric is predicted to move.
type config struct {
	LatenessP99LimitUS float64                 `json:"lateness_p99_limit_us"`
	Workloads          map[string]workloadSpec `json:"workloads"`
	PerLayer           map[string]perLayerSpec `json:"per_layer"`
	EndToEnd           map[string]endToEndSpec `json:"end_to_end"`
}

type workloadSpec struct {
	Why        string    `json:"why"`
	LowQPS     float64   `json:"low_qps"`
	HighQPS    float64   `json:"high_qps"`
	P99LimitMS float64   `json:"p99_limit_ms"`
	LadderQPS  []float64 `json:"ladder_qps"`
}

type perLayerSpec struct {
	Unit  string `json:"unit"`
	Moves string `json:"moves"`
}

type endToEndSpec struct {
	Unit string `json:"unit"`
}

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return c, fmt.Errorf("config.json: %w", err)
	}
	return c, nil
}

var deployers = map[string]func(seed int64) (deployment, error){
	"router-kv":       deployRouter,
	"hdsearch-lsh":    deployHDSearch,
	"setalgebra-docs": deploySetAlgebra,
}

// options are one invocation's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
}

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// result is what a run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, samples: samples}
}

// account adds a window's requests to the run's totals.
func (r *result) account(w windowResult) {
	r.Attempted += w.Scheduled
	r.Failed += w.Failed()
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: router-kv, hdsearch-lsh or setalgebra-docs")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for the span file and result records")
	flag.Parse()
	o.traced = trace == 1
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, record, err := run(cfg, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(record)
	if err == nil {
		fmt.Println("record", string(b))
	}
	b, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run executes one workload run and returns its result and a record
// stamped with the host fingerprint.  Human-readable lines go to log.
func run(cfg config, o options, log io.Writer) (*result, map[string]any, error) {
	spec, ok := cfg.Workloads[o.workload]
	deploy := deployers[o.workload]
	if !ok || deploy == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	// One heap holds every tier and the benchmark's reference data.  The
	// collector runs at Go's default pace whatever GOGC the environment sets:
	// hdsearch-lsh allocates heavily per request, and at GOGC=400 whether a
	// cycle fell inside a window moved its CPU per request by up to a
	// quarter between runs, while at 100 the cycles are many enough to
	// average out.
	defer debug.SetGCPercent(debug.SetGCPercent(gcPercent))
	b := &bench{cfg: cfg, spec: spec, o: o, log: log,
		res:      &result{Correct: true, Metrics: map[string]metric{}},
		late:     time.Duration(cfg.LatenessP99LimitUS * float64(time.Microsecond)),
		lateness: map[string]float64{},
		tails:    map[string]float64{}}
	var err error
	if o.traced {
		err = b.tracedRun(deploy)
	} else {
		err = b.endToEndRun(deploy)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := b.validate(); err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, len(b.res.Metrics))
	for n := range b.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	samples := map[string]int{}
	for _, n := range names {
		m := b.res.Metrics[n]
		samples[n] = m.samples
		fmt.Fprintf(log, "%-32s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.samples)
	}
	record := map[string]any{
		"workload": o.workload, "trace": o.traced, "seconds": o.seconds,
		"host": hostFingerprint(o.seed), "samples": samples, "result": b.res,
		"low_qps": spec.LowQPS, "high_qps": spec.HighQPS, "p99_limit_ms": spec.P99LimitMS,
		"loadgen.late_p99_us": b.lateness, "lateness_p99_limit_us": b.cfg.LatenessP99LimitUS,
		"latency_ms": b.tails, "goodput_qps": b.goodputFig.Value, "goodput_windows": b.goodputFig.samples,
	}
	return b.res, record, nil
}

// bench carries one run's state.
type bench struct {
	cfg  config
	spec workloadSpec
	o    options
	log  io.Writer
	res  *result
	late time.Duration
	seq  int // next request of the input stream
	// windows counts the windows run so far.
	windows int
	// lateness is each latency rate's lateness p99, tails its latency
	// percentiles in ms, and goodput the highest sustained rate, for the
	// record.
	lateness   map[string]float64
	tails      map[string]float64
	goodputFig metric
}

// window runs one open-loop window over the deployment, advancing the
// input stream, and adds its requests to the run's totals.
func (b *bench) window(d deployment, w window) windowResult {
	// Arrival times depend on the window's place in the run, not on the
	// input seed: every run offers the same bursts, and the seed varies
	// only the data and the requests.
	b.windows++
	w.Seed = int64(b.windows)
	w.FirstSeq = b.seq
	if w.Drain == 0 {
		w.Drain = 5 * time.Second
	}
	// Every window starts from a fresh collection, so the GC cycles inside
	// it follow from its own allocation rather than from what came before.
	runtime.GC()
	before := readCounters()
	r := runWindow(w, d.issue, d.check)
	r.Counters = before.delta(readCounters())
	b.seq += r.Scheduled
	b.res.account(r)
	fmt.Fprintf(b.log, "window %6.0f QPS: sent %d ok %d failed %d achieved %.0f late p99 %v latency p50 %v p90 %v p99 %v steal %v\n",
		w.QPS, r.Scheduled, r.Completed, r.Failed(), r.Achieved(), r.figure(r.Late, 0.99),
		r.figure(r.Latency, 0.5), r.figure(r.Latency, 0.9), r.figure(r.Latency, 0.99), r.Steal)
	return r
}

// measureRounds is how many short windows each latency rate is split
// into.  The rates take turns window by window, so a burst of contention on
// the shared host falls on every rate alike, and the quiet sub-windows that
// the figures pool come from across the whole run.
const measureRounds = 6

// interleave measures each of ws for per in total, as measureRounds windows
// taken in turn, and merges each one's windows.  Any failed request fails
// the run, and so does a generator that was late in the quiet sub-windows.
func (b *bench) interleave(d deployment, per time.Duration, ws ...window) ([]windowResult, error) {
	parts := make([][]windowResult, len(ws))
	for round := 0; round < measureRounds; round++ {
		for i, w := range ws {
			w.Duration = per / measureRounds
			parts[i] = append(parts[i], b.window(d, w))
		}
	}
	out := make([]windowResult, len(ws))
	for i := range ws {
		r := merge(parts[i])
		if r.Failed() > 0 {
			return nil, fmt.Errorf("%d of %d requests failed at %.0f QPS (%d wrong answers): %v",
				r.Failed(), r.Scheduled, r.QPS, r.Wrong, r.FirstErr)
		}
		if err := r.guard(b.late); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("window%d_%.0fqps", i, r.QPS)
		b.lateness[name] = us(r.figure(r.Late, 0.99))
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
			b.tails[fmt.Sprintf("%s_p%g", name, 100*q)] = ms(r.figure(r.Latency, q))
		}
		out[i] = r
	}
	return out, nil
}

// setup deploys the workload the given number of times, keeps the last
// deployment and returns every set-up time.
func setup(deploy func(int64) (deployment, error), seed int64, times int) (deployment, []float64, error) {
	var durs []float64
	var d deployment
	for i := 0; i < times; i++ {
		if d != nil {
			d.close()
		}
		t := time.Now()
		var err error
		d, err = deploy(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, time.Since(t).Seconds())
	}
	return d, durs, nil
}

const (
	setupRepeats = 5
	warmSeconds  = 0.5
	gcPercent    = 100
	// latencyShare of the run measures each of the low and high rates, and
	// climbShare searches the goodput ladder.
	latencyShare = 0.3
	climbShare   = 0.4
	// The goodput search spends scanShare of its time on scanProbes short
	// windows and the rest on at most confirmWindows long ones.
	scanShare      = 0.2
	scanProbes     = 5
	confirmWindows = 5
)

// endToEndRun measures the end-to-end metrics: latency at the low rate, CPU
// per request at the high rate, the failure fraction, answer quality and
// set-up time; and for the record, latency at the high rate and goodput on
// the fixed ladder.
func (b *bench) endToEndRun(deploy func(int64) (deployment, error)) error {
	d, setups, err := setup(deploy, b.o.seed, setupRepeats)
	if err != nil {
		return err
	}
	defer d.close()
	if err := d.prepare(); err != nil {
		return err
	}
	quality, err := d.quality()
	if err != nil {
		return fmt.Errorf("quality sample: %w", err)
	}
	S := b.o.seconds
	b.window(d, window{QPS: b.spec.LowQPS, Duration: secs(warmSeconds)})

	rs, err := b.interleave(d, secs(latencyShare*S), window{QPS: b.spec.LowQPS}, window{QPS: b.spec.HighQPS})
	if err != nil {
		return err
	}
	low, high := rs[0], rs[1]

	limit := time.Duration(b.spec.P99LimitMS * float64(time.Millisecond))
	goodput, rungs := 0.0, 0
	switch {
	case !low.meets(limit, b.late):
	case !high.meets(limit, b.late):
		goodput, rungs = low.QPS, 1
	default:
		if goodput, rungs, err = b.goodput(d, limit, secs(climbShare*S)); err != nil {
			return err
		}
	}

	// Goodput and the high rate's latency go to the record only: they
	// follow the shared host's contention too closely to be gated (see
	// README.md).
	b.goodputFig = metric{Value: goodput, Unit: "1/s", samples: rungs}
	fmt.Fprintf(b.log, "goodput %.0f QPS after %d windows\n", goodput, rungs)
	r := b.res
	r.set("p50_ms_low", ms(low.figure(low.Latency, 0.5)), "ms", len(low.pooled(low.Latency)))
	r.set("cpu_us_per_req", us(high.Counters.CPU)/float64(max(high.Completed, 1)), "us", high.Completed)
	r.set("ok_frac", 1-float64(r.Failed)/float64(max(r.Attempted, 1)), "frac", r.Attempted)
	r.set("recall_at_10", quality, "frac", 1)
	r.set("setup_s", median(setups), "s", len(setups))
	return nil
}

// goodput returns the highest rung of the ladder at which a window meets
// the limit, and the number of windows it measured.  Near the knee a short
// window's verdict turns on a single burst of contention or a collector
// cycle, and a queue has too little time to build, so short windows only
// locate the knee, by bisection over the ladder, and long windows decide:
// starting two rungs below the highest rung the bisection saw pass, they
// climb while rungs meet the limit and step down while they miss.  When no
// rung meets it, goodput is the high rate.
func (b *bench) goodput(d deployment, limit, budget time.Duration) (float64, int, error) {
	ladder := b.spec.LadderQPS
	windows := 0
	meets := func(i int, dur time.Duration) (bool, error) {
		windows++
		r := b.window(d, window{QPS: ladder[i], Duration: dur})
		if r.Wrong > 0 {
			return false, fmt.Errorf("%d wrong answers at %.0f QPS: %v", r.Wrong, ladder[i], r.FirstErr)
		}
		return r.meets(limit, b.late), nil
	}
	// The high rate met the limit; assume the rung past the top misses.
	lo, hi := -1, len(ladder)
	for probe := 0; probe < scanProbes && hi-lo > 1; probe++ {
		mid := (lo + hi) / 2
		ok, err := meets(mid, time.Duration(scanShare*float64(budget))/scanProbes)
		if err != nil {
			return 0, windows, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	long := time.Duration((1 - scanShare) * float64(budget) / confirmWindows)
	best := -1
	for i, n := max(lo-2, 0), 0; i >= 0 && i < len(ladder) && n < confirmWindows; n++ {
		ok, err := meets(i, long)
		if err != nil {
			return 0, windows, err
		}
		switch {
		case ok:
			best = i
			i++
		case best >= 0:
			i = len(ladder) // the rung above a met one missed
		default:
			i--
		}
	}
	if best < 0 {
		return b.spec.HighQPS, windows, nil
	}
	return ladder[best], windows, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// validate checks that every metric the configuration names for this kind
// of run is present, finite and carries its unit.
func (b *bench) validate() error {
	want := map[string]string{}
	if b.o.traced {
		for n, s := range b.cfg.PerLayer {
			want[n] = s.Unit
		}
	} else {
		for n, s := range b.cfg.EndToEnd {
			want[n] = s.Unit
		}
	}
	for n, unit := range want {
		m, ok := b.res.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s has unit %q, want %q", n, m.Unit, unit)
		}
	}
	for n := range b.res.Metrics {
		if _, ok := want[n]; !ok {
			return fmt.Errorf("metric %s is not in the configuration", n)
		}
	}
	return nil
}

// spanPath is where a traced run writes its spans.
func spanPath(o options) string {
	return filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
}
