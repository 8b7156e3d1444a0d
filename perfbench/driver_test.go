package main

import (
	"errors"
	"io"
	"testing"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/trace"
)

// instantService answers every request at once; stallEvery > 0 makes every
// stallEvery-th issue block the dispatcher for stall first.
type instantService struct {
	stallEvery int
	stall      time.Duration
	issued     int
}

func (s *instantService) issue(seq int, _ trace.SpanContext, done chan *rpc.Call) *rpc.Call {
	s.issued++
	if s.stallEvery > 0 && s.issued%s.stallEvery == 0 {
		time.Sleep(s.stall)
	}
	now := time.Now()
	c := &rpc.Call{Method: "instant", Sent: now, Received: now.Add(10 * time.Microsecond)}
	done <- c
	return c
}

func (s *instantService) check(*rpc.Call) error { return nil }
func (s *instantService) prepare() error        { return nil }
func (s *instantService) quality() (float64, error) {
	return 1, nil
}
func (s *instantService) replay(int, *rpc.Client) (replayRecord, error) {
	return replayRecord{}, errors.New("not replayable")
}
func (s *instantService) tiers() (string, []string) { return "", nil }
func (s *instantService) close()                    {}

// guardLimit is far above a prompt dispatcher's lateness even on a busy
// shared host, and far below the stalls the failing case injects.
const guardLimit = 25 * time.Millisecond

func TestLatenessGuardPassesPromptDispatcher(t *testing.T) {
	s := &instantService{}
	r := runWindow(window{QPS: 1000, Duration: time.Second, Seed: 1, Drain: time.Second}, s.issue, s.check)
	if r.Completed != r.Scheduled || r.Scheduled < 800 {
		t.Fatalf("completed %d of %d", r.Completed, r.Scheduled)
	}
	if err := r.guard(guardLimit); err != nil {
		t.Fatalf("prompt dispatcher refused: %v", err)
	}
}

// A dispatcher stalled by its issue function every Nth call sends the
// following requests late; the run must fail rather than report latencies
// clocked from those late sends.
func TestLatenessGuardFailsStalledDispatcher(t *testing.T) {
	s := &instantService{stallEvery: 50, stall: 40 * time.Millisecond}
	b := &bench{o: options{seed: 1}, log: io.Discard, late: guardLimit,
		res: &result{Metrics: map[string]metric{}}}
	_, err := b.interleave(s, time.Second, window{QPS: 1000})
	if err == nil {
		t.Fatal("a dispatcher stalled every 50th call passed the lateness guard")
	}
	if b.res.Attempted == 0 || b.res.Failed != 0 {
		t.Fatalf("attempted %d failed %d", b.res.Attempted, b.res.Failed)
	}
}

// Parts that lost CPU time to the hypervisor do not move the reported
// figure; a slowdown in every part does.
func TestFigureUsesQuietSubWindows(t *testing.T) {
	r := windowResult{Part: time.Second, Steal: []int64{0, 90, 1, 2, 40, 3, 50, 60, 70, 80}}
	for i := 0; i < 10000; i++ {
		at := time.Duration(i) * time.Millisecond
		d := time.Duration(i%100) * time.Microsecond
		if p := r.part(sample{at: at}); r.Steal[p] >= 40 {
			d = 50 * time.Millisecond
		}
		r.Latency = append(r.Latency, sample{at: at, d: d})
	}
	if got := r.figure(r.Latency, 0.99); got > 100*time.Microsecond {
		t.Fatalf("p99 %v follows the stolen sub-windows", got)
	}
	for i := range r.Latency {
		if i%50 == 0 {
			r.Latency[i].d = 50 * time.Millisecond
		}
	}
	if got := r.figure(r.Latency, 0.99); got < 50*time.Millisecond {
		t.Fatalf("p99 %v misses a slowdown in every sub-window", got)
	}
}

// capacityService answers at once while the rate it is offered, judged from
// its issues in the window's last rateSpan, stays within capacity, and a
// second later otherwise.
type capacityService struct {
	instantService
	b        *bench
	capacity float64
	window   int
	issued   []time.Time
}

const rateSpan = 20 * time.Millisecond

func (s *capacityService) issue(seq int, _ trace.SpanContext, done chan *rpc.Call) *rpc.Call {
	now := time.Now()
	if s.window != s.b.windows {
		s.window, s.issued = s.b.windows, s.issued[:0]
	}
	s.issued = append(s.issued, now)
	n := 0
	for i := len(s.issued) - 1; i >= 0 && now.Sub(s.issued[i]) < rateSpan; i-- {
		n++
	}
	d := 10 * time.Microsecond
	if float64(n)/rateSpan.Seconds() > s.capacity {
		d = time.Second
	}
	c := &rpc.Call{Method: "capacity", Sent: now, Received: now.Add(d)}
	done <- c
	return c
}

// The goodput search settles on the highest rung under the service's
// capacity, wherever the bisection's short windows land, and falls back to
// the high rate when no rung is sustained.
func TestGoodputFindsCapacity(t *testing.T) {
	for _, tc := range []struct{ capacity, want float64 }{{3500, 2000}, {1500, 1000}, {700, 500}} {
		b := &bench{o: options{seed: 1}, log: io.Discard, late: guardLimit,
			res:  &result{Metrics: map[string]metric{}},
			spec: workloadSpec{HighQPS: 500, LadderQPS: []float64{1000, 2000, 5000, 6000, 7000}}}
		s := &capacityService{b: b, capacity: tc.capacity}
		got, windows, err := b.goodput(s, 50*time.Millisecond, 4*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want || windows == 0 {
			t.Errorf("capacity %v: goodput %v after %d windows, want %v", tc.capacity, got, windows, tc.want)
		}
	}
}
