package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"musuite/internal/loadgen"
	"musuite/internal/rpc"
	"musuite/internal/trace"
)

// issueFunc sends request seq of the workload's input stream and returns the
// in-flight call; a sampled sc asks the service client to carry it.
type issueFunc func(seq int, sc trace.SpanContext, done chan *rpc.Call) *rpc.Call

// checkFunc validates one completed call's reply against the benchmark's
// reference.  It runs on the collector goroutine only.
type checkFunc func(call *rpc.Call) error

// window is one open-loop measurement interval at a fixed offered rate.
type window struct {
	QPS      float64
	Duration time.Duration
	Seed     int64
	// FirstSeq numbers the window's first request in the input stream, so
	// consecutive windows walk the stream instead of replaying its head.
	FirstSeq int
	// Drain bounds the wait for stragglers after the last send.
	Drain time.Duration
	// Spans, when set, records a root span per request (actual send to
	// Call.Received) with a child span for the time inside the client's Go.
	Spans *trace.Recorder
}

// sample is one request's measurement and when, from the window start, the
// request was due.
type sample struct {
	at, d time.Duration
}

// Sub-windows.  A window is split into subWindows equal parts and the
// machine's steal time (CPU time the hypervisor gave to other machines) is
// read at each boundary.  Reported figures pool the quiet parts: those that
// lost at most quietSteal of their CPU time, or, when fewer than quietShare
// of the parts qualify, the quietShare with the least steal.  A program that
// is slower everywhere moves every part, while a neighbour taking the shared
// host's CPUs moves only the parts it overlaps.  Steal is set by the
// host's other tenants, so choosing parts by it does not pick out the
// program's own stalls the way choosing by latency or lateness would.
const (
	subWindows = 10
	quietSteal = 0.05
	quietShare = 0.4
)

// windowResult is what one window measured.  Latencies run from the actual
// send (Call.Sent, stamped by the rpc client as the frame goes out) to
// Call.Received; lateness is the dispatcher's actual send instant minus the
// request's scheduled instant, recorded for every request.
type windowResult struct {
	QPS       float64
	Scheduled int
	Completed int
	Errors    int
	Shed      int
	Wrong     int
	Dropped   int
	FirstErr  error
	Latency   []sample
	Late      []sample
	GoTime    []time.Duration
	// Elapsed runs from the window start to the last completion.
	Elapsed time.Duration
	// Offered is the realised Poisson schedule's rate: scheduled requests
	// over the scheduled span.
	Offered float64
	// Part is the sub-window length and Steal the steal ticks in each.
	Part  time.Duration
	Steal []int64
	// Counters are the process counters' change over the window.
	Counters counterDelta
}

// Failed counts every attempted request that did not return a correct
// answer: transport or application errors, sheds, drops and wrong answers.
func (r windowResult) Failed() int { return r.Errors + r.Shed + r.Dropped + r.Wrong }

// Achieved is completions per second from the window start to the last
// completion, so a backlog that drains after the schedule ends lowers it.
func (r windowResult) Achieved() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// quiet reports, per sub-window, whether it is a quiet part.
func (r windowResult) quiet() []bool {
	idx := make([]int, len(r.Steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r.Steal[idx[a]] < r.Steal[idx[b]] })
	// Steal is counted in clock ticks summed over every CPU.
	budget := int64(quietSteal * r.Part.Seconds() * float64(clockTicks*runtime.NumCPU()))
	n := int(math.Ceil(quietShare * float64(len(idx))))
	for n < len(idx) && r.Steal[idx[n]] <= budget {
		n++
	}
	q := make([]bool, len(r.Steal))
	for _, i := range idx[:n] {
		q[i] = true
	}
	return q
}

// merge joins windows measured at one rate into one result, as if each
// had followed the previous one directly.
func merge(ws []windowResult) windowResult {
	m := windowResult{QPS: ws[0].QPS, Part: ws[0].Part}
	var shift time.Duration
	var span float64
	for _, w := range ws {
		m.Scheduled += w.Scheduled
		m.Completed += w.Completed
		m.Errors += w.Errors
		m.Shed += w.Shed
		m.Wrong += w.Wrong
		m.Dropped += w.Dropped
		if m.FirstErr == nil {
			m.FirstErr = w.FirstErr
		}
		for _, s := range w.Latency {
			m.Latency = append(m.Latency, sample{at: s.at + shift, d: s.d})
		}
		for _, s := range w.Late {
			m.Late = append(m.Late, sample{at: s.at + shift, d: s.d})
		}
		m.GoTime = append(m.GoTime, w.GoTime...)
		m.Steal = append(m.Steal, w.Steal...)
		m.Counters = m.Counters.add(w.Counters)
		m.Elapsed += w.Elapsed
		if w.Offered > 0 {
			span += float64(w.Scheduled) / w.Offered
		}
		shift += time.Duration(len(w.Steal)) * w.Part
	}
	if span > 0 {
		m.Offered = float64(m.Scheduled) / span
	}
	return m
}

// part returns the sub-window a sample falls in.
func (r windowResult) part(s sample) int {
	if r.Part <= 0 {
		return 0
	}
	return max(0, min(int(s.at/r.Part), len(r.Steal)-1))
}

// figure is the q-quantile of the samples that fall in the quiet
// sub-windows.
func (r windowResult) figure(samples []sample, q float64) time.Duration {
	return quantile(r.pooled(samples), q)
}

// pooled returns the durations of the samples in the quiet sub-windows.
func (r windowResult) pooled(samples []sample) []time.Duration {
	quiet := r.quiet()
	var out []time.Duration
	for _, s := range samples {
		if len(quiet) == 0 || quiet[r.part(s)] {
			out = append(out, s.d)
		}
	}
	return out
}

// guard refuses a window whose generator ran late: the latency clock starts
// at the actual send, so a dispatcher that falls behind would otherwise hide
// the queueing it failed to offer (coordinated omission).
func (r windowResult) guard(lateP99Limit time.Duration) error {
	if len(r.Late) == 0 {
		return fmt.Errorf("window at %.0f QPS sent nothing", r.QPS)
	}
	if p := r.figure(r.Late, 0.99); p > lateP99Limit {
		return fmt.Errorf("generator fell behind at %.0f QPS: lateness p99 %v exceeds %v", r.QPS, p, lateP99Limit)
	}
	return nil
}

// meets reports whether a window sustained its rate: in the quiet
// sub-windows at least 99% of the requests due answered correctly within
// the p99 limit (failures count as misses) and the generator was not late;
// over the whole window completions kept up with the offered schedule and
// nothing was dropped.
func (r windowResult) meets(limit, lateLimit time.Duration) bool {
	quiet := r.quiet()
	due, within := 0, 0
	for _, s := range r.Late {
		if quiet[r.part(s)] {
			due++
		}
	}
	for _, s := range r.Latency {
		if quiet[r.part(s)] && s.d <= limit {
			within++
		}
	}
	return due > 0 &&
		float64(within) >= 0.99*float64(due) &&
		r.Achieved() >= 0.98*r.Offered &&
		r.Dropped == 0 &&
		r.guard(lateLimit) == nil
}

// doneSlack sizes a window's completion channel.  The rpc client blocks its
// reader goroutine when a done channel is full, so the buffer must hold every
// completion that can arrive after the collector stops reading (drops left
// in flight when the drain deadline passes).
const doneSlack = 1 << 16

// runWindow offers Poisson arrivals at w.QPS from one dispatcher goroutine
// and collects completions on one collector goroutine.  The dispatcher
// sleeps with a high-resolution timer and never spins: on a small host a
// spinning generator takes the CPU the system under test needs.
func runWindow(w window, issue issueFunc, check checkFunc) windowResult {
	next := loadgen.PoissonArrivals(w.QPS, w.Duration, w.Seed)
	var offsets []time.Duration
	for i := 0; ; i++ {
		a, ok := next(i)
		if !ok {
			break
		}
		offsets = append(offsets, a.Offset)
	}
	res := windowResult{
		QPS:       w.QPS,
		Scheduled: len(offsets),
		Late:      make([]sample, 0, len(offsets)),
		GoTime:    make([]time.Duration, 0, len(offsets)),
		Latency:   make([]sample, 0, len(offsets)),
		Part:      w.Duration / subWindows,
	}
	if len(offsets) > 0 {
		res.Offered = float64(len(offsets)) / offsets[len(offsets)-1].Seconds()
	}
	done := make(chan *rpc.Call, doneSlack)
	var sent atomic.Int64
	dispatched := make(chan struct{})
	collected := make(chan struct{})
	stole := make(chan []int64)
	start := time.Now()
	var lastDone time.Time

	go func() {
		defer close(collected)
		var drain <-chan time.Time
		handled := 0
		for {
			if drain != nil && handled == int(sent.Load()) {
				return
			}
			select {
			case call := <-done:
				handled++
				lastDone = time.Now()
				res.record(call, check, w.Spans, start)
			case <-dispatched:
				dispatched = nil
				drain = time.After(w.Drain)
			case <-drain:
				res.Dropped = int(sent.Load()) - handled
				return
			}
		}
	}()

	go func() {
		steal := make([]int64, subWindows)
		prev := readSteal()
		for i := range steal {
			time.Sleep(time.Until(start.Add(time.Duration(i+1) * res.Part)))
			now := readSteal()
			steal[i], prev = now-prev, now
		}
		stole <- steal
	}()

	sl := newSleeper()
	for i, off := range offsets {
		due := start.Add(off)
		sl.until(due)
		var sc trace.SpanContext
		if w.Spans != nil {
			sc = trace.NewRootContext()
		}
		t0 := time.Now()
		issue(w.FirstSeq+i, sc, done)
		t1 := time.Now()
		sent.Add(1)
		res.Late = append(res.Late, sample{at: off, d: t0.Sub(due)})
		res.GoTime = append(res.GoTime, t1.Sub(t0))
		if w.Spans != nil {
			w.Spans.Record(trace.Span{
				TraceID: trace.ID(sc.TraceID), SpanID: trace.ID(trace.NewID()), ParentID: trace.ID(sc.SpanID),
				Name: "rpc.go", Kind: trace.KindClient, Start: t0.UnixNano(), Duration: int64(t1.Sub(t0)),
			})
		}
	}
	sl.close()
	close(dispatched)
	res.Steal = <-stole
	<-collected
	if !lastDone.IsZero() {
		res.Elapsed = lastDone.Sub(start)
	}
	return res
}

// record accounts one completion.  Only the collector goroutine calls it.
func (r *windowResult) record(call *rpc.Call, check checkFunc, spans *trace.Recorder, start time.Time) {
	defer call.Release()
	if spans != nil && call.Trace.Sampled() {
		spans.Record(trace.Span{
			TraceID: trace.ID(call.Trace.TraceID), SpanID: trace.ID(call.Trace.SpanID),
			Name: "request:" + call.Method, Kind: trace.KindClient,
			Start: call.Sent.UnixNano(), Duration: int64(call.Received.Sub(call.Sent)),
		})
	}
	if call.Err != nil {
		if rpc.IsOverload(call.Err) {
			r.Shed++
		} else {
			r.Errors++
		}
		if r.FirstErr == nil {
			r.FirstErr = call.Err
		}
		return
	}
	if err := check(call); err != nil {
		r.Wrong++
		if r.FirstErr == nil {
			r.FirstErr = err
		}
		return
	}
	r.Completed++
	r.Latency = append(r.Latency, sample{at: call.Sent.Sub(start), d: call.Received.Sub(call.Sent)})
}

// sleeper waits until a deadline without spinning.  Go's runtime timers
// round sub-millisecond sleeps up to about a millisecond on an idle process,
// so the dispatcher locks its OS thread, lowers that thread's timer slack,
// and waits in nanosleep(2).  The thread also asks for real-time priority,
// so that when its sleep ends it runs at once instead of queueing behind the
// service's threads for a time slice: with a vCPU taken by the hypervisor,
// that queueing made the generator late by over 10 ms at p99.  The thread
// only ever sleeps or sends, so it cannot starve the service.
type sleeper struct {
	oldSlack uintptr
	realtime bool
}

const (
	prSetTimerSlack = 29
	prGetTimerSlack = 30
	schedOther      = 0
	schedFIFO       = 1
	// coarseSleepAbove hands long gaps to the runtime timer first; its
	// millisecond rounding is harmless there and frees the thread.
	coarseSleepAbove = 3 * time.Millisecond
)

func newSleeper() *sleeper {
	runtime.LockOSThread()
	old, _, _ := syscall.Syscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	// Best effort: without the lower slack the kernel's default 50µs
	// slack only widens lateness, which the guard still measures.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	// Best effort too: without the privilege the thread keeps its normal
	// priority and the guard still measures the lateness that follows.
	return &sleeper{oldSlack: old, realtime: setScheduler(schedFIFO, 1) == nil}
}

// setScheduler sets the calling thread's scheduling policy and priority.
func setScheduler(policy, priority int32) error {
	param := priority // struct sched_param holds one int
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&param)))
	if errno != 0 {
		return errno
	}
	return nil
}

func (s *sleeper) until(due time.Time) {
	d := time.Until(due)
	if d > coarseSleepAbove {
		time.Sleep(d - 2*time.Millisecond)
		d = time.Until(due)
	}
	for d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			return
		}
		d = time.Until(due)
	}
}

func (s *sleeper) close() {
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, s.oldSlack, 0)
	if s.realtime {
		// Giving up real-time priority is always permitted.
		_ = setScheduler(schedOther, 0)
	}
	runtime.UnlockOSThread()
}
