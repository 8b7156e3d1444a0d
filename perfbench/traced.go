package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"musuite/internal/core"
	"musuite/internal/rpc"
	"musuite/internal/trace"
)

const (
	replayRequests = 300
	statsEvery     = 10 * time.Millisecond
)

// tracedRun measures the per-layer metrics.  Untraced and traced windows at
// the low rate take turns while the mid-tier and leaf counters are sampled
// over core.QueryStats.  The untraced windows give the generator, client
// and runtime/OS counter figures; the traced ones record benchmark-side
// spans around every client call.  Then a sequential replay of a fixed
// request sample times each request end to end and then its sub-calls into
// every layer directly.
func (b *bench) tracedRun(deploy func(int64) (deployment, error)) error {
	d, _, err := setup(deploy, b.o.seed, 1)
	if err != nil {
		return err
	}
	defer d.close()
	if err := d.prepare(); err != nil {
		return err
	}
	S := b.o.seconds
	b.window(d, window{QPS: b.spec.LowQPS, Duration: secs(warmSeconds)})

	spans := trace.NewRecorder("perfbench", 1<<20)
	tiers, err := dialTiers(d)
	if err != nil {
		return err
	}
	defer tiers.close()
	startStats, err := tiers.snapshot()
	if err != nil {
		return err
	}
	depths, stopPoll := tiers.pollQueueDepth(statsEvery)
	rs, err := b.interleave(d, secs(0.3*S), window{QPS: b.spec.LowQPS}, window{QPS: b.spec.LowQPS, Spans: spans})
	stopPoll()
	if err != nil {
		return err
	}
	plain, traced := rs[0], rs[1]
	delta := plain.Counters
	endStats, err := tiers.snapshot()
	if err != nil {
		return err
	}

	echoSrv, echo, err := startEcho()
	if err != nil {
		return err
	}
	defer echoSrv.Close()
	defer echo.Close()
	var records []replayRecord
	deadline := time.Now().Add(secs(0.35 * S))
	for i := 0; i < replayRequests && time.Now().Before(deadline); i++ {
		rec, err := d.replay(b.seq, echo)
		b.seq++
		b.res.Attempted++
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		rec.vals["e2e_us"] = us(rec.e2e)
		records = append(records, rec)
		recordReplaySpans(spans, rec, time.Now())
	}
	if len(records) == 0 {
		return fmt.Errorf("replay measured no requests")
	}
	if err := os.MkdirAll(b.o.outDir, 0o755); err != nil {
		return fmt.Errorf("span output: %w", err)
	}
	if err := trace.WriteFile(spanPath(b.o), spans.Snapshot()); err != nil {
		return fmt.Errorf("span output: %w", err)
	}
	fmt.Fprintf(b.log, "spans: %s (%d)\n", spanPath(b.o), spans.Len())

	r := b.res
	n := plain.Completed
	per := func(v float64) float64 { return v / float64(max(n, 1)) }
	r.set("loadgen.late_p50_us", us(plain.figure(plain.Late, 0.5)), "us", len(plain.Late))
	r.set("loadgen.late_p99_us", us(plain.figure(plain.Late, 0.99)), "us", len(plain.Late))
	r.set("rpc.go_us_p50", us(quantile(plain.GoTime, 0.5)), "us", len(plain.GoTime))
	r.set("runtime.sched_lat_p99_us", us(delta.SchedP99()), "us", n)
	r.set("runtime.allocs_per_req", per(float64(delta.Allocs)), "count", n)
	gc := 0.0
	if delta.AllCPU > 0 {
		gc = delta.GCCPU / delta.AllCPU
	}
	r.set("runtime.gc_cpu_frac", gc, "frac", n)
	r.set("runtime.mutex_wait_us_per_req", per(delta.MutexWaitSeconds*1e6), "us", n)
	r.set("os.vcsw_per_req", per(float64(delta.VCSW)), "count", n)
	r.set("os.ivcsw_per_req", per(float64(delta.IVCSW)), "count", n)
	r.set("os.syscr_per_req", per(float64(delta.SysCR)), "count", n)
	r.set("os.syscw_per_req", per(float64(delta.SysCW)), "count", n)

	plainP50 := plain.figure(plain.Latency, 0.5)
	overhead := 0.0
	if plainP50 > 0 {
		overhead = float64(traced.figure(traced.Latency, 0.5))/float64(plainP50) - 1
	}
	r.set("trace_overhead_frac", overhead, "frac", len(traced.Latency))

	served := func(s core.TierStats) float64 { return float64(s.Served) }
	mid := served(endStats.mid) - served(startStats.mid)
	var leafServed, points, nanos float64
	for i := range endStats.leaves {
		leafServed += served(endStats.leaves[i]) - served(startStats.leaves[i])
		points += float64(endStats.leaves[i].KernelPoints - startStats.leaves[i].KernelPoints)
		nanos += float64(endStats.leaves[i].KernelNanos - startStats.leaves[i].KernelNanos)
	}
	fanout := 0.0
	if mid > 0 {
		fanout = leafServed / mid
	}
	nsPerPoint := 0.0
	if points > 0 {
		nsPerPoint = nanos / points
	}
	r.set("core.midtier.fanout", fanout, "count", int(mid))
	r.set("core.midtier.shed", float64(endStats.mid.Shed-startStats.mid.Shed), "count", int(mid))
	r.set("core.midtier.queue_depth_mean", meanOf(depths()), "count", len(depths()))
	r.set("kernel.ns_per_point", nsPerPoint, "ns", int(points))

	for _, m := range replayMetrics {
		v, k := replayStat(records, m.key, m.stat)
		r.set(m.name, v, m.unit, k)
	}
	return nil
}

// replayMetrics maps per-request replay values to reported metrics.  A
// layer a workload does not pass through reports 0 with no samples.
var replayMetrics = []struct{ name, key, stat, unit string }{
	{"rpc.echo_rtt_us_p50", "rpc.echo_rtt_us", "p50", "us"},
	{"rpc.echo_rtt_us_p99", "rpc.echo_rtt_us", "p99", "us"},
	{"wire.req_bytes", "wire.req_bytes", "mean", "bytes"},
	{"wire.reply_bytes", "wire.reply_bytes", "mean", "bytes"},
	{"wire.leaf_req_bytes", "wire.leaf_req_bytes", "mean", "bytes"},
	{"core.midtier.self_us_p50", "core.midtier.self_us", "p50", "us"},
	{"core.leaf.rpc_us_p50", "core.leaf.rpc_us", "p50", "us"},
	{"core.leaf.overhead_us_p50", "core.leaf.overhead_us", "p50", "us"},
	{"lsh.lookup_us_p50", "lsh.lookup_us", "p50", "us"},
	{"lsh.candidates_per_req", "lsh.candidates", "mean", "count"},
	{"kernel.scan_us_p50", "kernel.scan_us", "p50", "us"},
	{"kernel.scan_sum_us_p50", "kernel.scan_sum_us", "p50", "us"},
	{"kernel.merge_us_p50", "kernel.merge_us", "p50", "us"},
	{"postlist.intersect_us_p50", "postlist.intersect_us", "p50", "us"},
	{"postlist.union_us_p50", "postlist.union_us", "p50", "us"},
	{"postlist.result_ids_p50", "postlist.result_ids", "p50", "count"},
	{"postlist.result_ids_p99", "postlist.result_ids", "p99", "count"},
	{"memcache.get_ns_p50", "memcache.get_ns", "p50", "ns"},
	{"memcache.set_ns_p50", "memcache.set_ns", "p50", "ns"},
	{"router.route_ns_p50", "router.route_ns", "p50", "ns"},
	{"router.get_us_p50", "router.get_us", "p50", "us"},
	{"router.set_us_p50", "router.set_us", "p50", "us"},
	{"replay.e2e_us_p50", "e2e_us", "p50", "us"},
}

// replayStat aggregates one per-request value over the replayed requests
// that have it.
func replayStat(records []replayRecord, key, stat string) (float64, int) {
	var vals []float64
	for _, rec := range records {
		if v, ok := rec.vals[key]; ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, 0
	}
	switch stat {
	case "p50":
		return median(vals), len(vals)
	case "p99":
		ds := make([]time.Duration, len(vals))
		for i, v := range vals {
			ds[i] = time.Duration(v * 1e3) // keep three decimals through the duration quantile
		}
		return float64(quantile(ds, 0.99)) / 1e3, len(vals)
	}
	return meanOf(vals), len(vals)
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// recordReplaySpans writes one replayed request as a span tree.  The root
// spans the end-to-end time; its layers follow one another from the root's
// start, each layer's own children likewise, and the part of a span its
// children do not cover becomes a self-time span (core.midtier.self under
// the root, core.leaf.overhead under the leaf RPC).  So, per request, the
// layer spans plus the remainder equal the end-to-end time.  A remainder
// that would be negative (layers timed directly took longer than inside
// the request) is recorded as an overrun_ns note on its parent instead.
func recordReplaySpans(rec *trace.Recorder, r replayRecord, end time.Time) {
	root := trace.NewRootContext()
	start := end.Add(-r.e2e).UnixNano()
	s := trace.Span{
		TraceID: trace.ID(root.TraceID), SpanID: trace.ID(root.SpanID),
		Name: "replay:" + r.name, Kind: trace.KindClient, Start: start, Duration: int64(r.e2e),
	}
	if over := placeLayers(rec, root, start, int64(r.e2e), r.layers, "core.midtier.self"); over > 0 {
		s.Notes = []string{fmt.Sprintf("overrun_ns=%d", over)}
	}
	rec.Record(s)
}

// placeLayers records children back to back under parent from start, then
// the self-time span, and returns the overrun when children exceed dur.
func placeLayers(rec *trace.Recorder, parent trace.SpanContext, start, dur int64, children []layer, rest string) int64 {
	cur := start
	for _, c := range children {
		ctx := parent.Child()
		d := max(int64(c.dur), 0)
		s := trace.Span{
			TraceID: trace.ID(ctx.TraceID), SpanID: trace.ID(ctx.SpanID), ParentID: trace.ID(ctx.ParentID),
			Name: c.name, Start: cur, Duration: d,
		}
		if len(c.children) > 0 {
			if over := placeLayers(rec, ctx, cur, d, c.children, c.rest); over > 0 {
				s.Notes = []string{fmt.Sprintf("overrun_ns=%d", over)}
			}
		}
		rec.Record(s)
		cur += d
	}
	left := start + dur - cur
	if left < 0 {
		return -left
	}
	ctx := parent.Child()
	rec.Record(trace.Span{
		TraceID: trace.ID(ctx.TraceID), SpanID: trace.ID(ctx.SpanID), ParentID: trace.ID(ctx.ParentID),
		Name: rest, Start: cur, Duration: left,
	})
	return 0
}

// tierClients are the benchmark's stats connections to the mid-tier and
// every leaf.
type tierClients struct {
	mid    *rpc.Client
	leaves []*rpc.Client
}

type tierStats struct {
	mid    core.TierStats
	leaves []core.TierStats
}

func dialTiers(d deployment) (*tierClients, error) {
	midAddr, leafAddrs := d.tiers()
	t := &tierClients{}
	var err error
	if t.mid, err = rpc.Dial(midAddr, nil); err != nil {
		return nil, fmt.Errorf("dial mid-tier stats: %w", err)
	}
	for _, a := range leafAddrs {
		c, err := rpc.Dial(a, nil)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("dial leaf stats: %w", err)
		}
		t.leaves = append(t.leaves, c)
	}
	return t, nil
}

func (t *tierClients) snapshot() (tierStats, error) {
	var s tierStats
	var err error
	if s.mid, err = core.QueryStats(t.mid); err != nil {
		return s, fmt.Errorf("mid-tier stats: %w", err)
	}
	for _, c := range t.leaves {
		ls, err := core.QueryStats(c)
		if err != nil {
			return s, fmt.Errorf("leaf stats: %w", err)
		}
		s.leaves = append(s.leaves, ls)
	}
	return s, nil
}

// pollQueueDepth samples the mid-tier's dispatch-queue depth every period
// until stop is called; stop waits for the poller to exit.
func (t *tierClients) pollQueueDepth(period time.Duration) (samples func() []float64, stop func()) {
	var mu sync.Mutex
	var depths []float64
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if s, err := core.QueryStats(t.mid); err == nil {
					mu.Lock()
					depths = append(depths, float64(s.QueueDepth))
					mu.Unlock()
				}
			}
		}
	}()
	var once sync.Once
	return func() []float64 {
			mu.Lock()
			defer mu.Unlock()
			return append([]float64(nil), depths...)
		}, func() {
			once.Do(func() { close(quit); wg.Wait() })
		}
}

func (t *tierClients) close() {
	if t.mid != nil {
		t.mid.Close()
	}
	for _, c := range t.leaves {
		c.Close()
	}
}
