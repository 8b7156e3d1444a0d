package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"musuite/internal/core"
	"musuite/internal/rpc"
	"musuite/internal/trace"
)

// Pool sizes of every tier: two workers each, as in the repository's small
// scale, so two cores are not oversubscribed by idle threads.
const (
	tierWorkers   = 2
	tierResponses = 2
	tierLeafConns = 2
)

func midOptions() core.Options {
	return core.Options{Workers: tierWorkers, ResponseThreads: tierResponses, LeafConnsPerShard: tierLeafConns}
}

func leafOptions() *core.LeafOptions { return &core.LeafOptions{Workers: tierWorkers} }

// deployment is one service running in-process over loopback TCP, built
// from the service package's exported constructors.
type deployment interface {
	// issue sends request seq of the input stream through the service
	// client's asynchronous Go path.
	issue(seq int, sc trace.SpanContext, done chan *rpc.Call) *rpc.Call
	// prepare generates the request stream and computes the reference
	// answers.  It runs after set-up and is not part of set-up time.
	prepare() error
	// check validates one reply against the reference.
	check(call *rpc.Call) error
	// quality is the mean recall@10 (hdsearch) or exact-answer fraction
	// (router, setalgebra) of a fixed sequential sample of requests.
	quality() (float64, error)
	// replay times request seq end to end, then times that request's
	// sub-calls into each layer directly.
	replay(seq int, echo *rpc.Client) (replayRecord, error)
	// tiers returns the mid-tier and leaf addresses.
	tiers() (mid string, leaves []string)
	close()
}

// tierSet owns the running tiers of a deployment and the benchmark's direct
// connections to its leaves.
type tierSet struct {
	mid       *core.MidTier
	midAddr   string
	leaves    []*core.Leaf
	leafAddrs []string
	direct    []*rpc.Client
}

// startLeaves starts each leaf on loopback and records its address.
func (t *tierSet) startLeaves(leaves []*core.Leaf) error {
	for _, l := range leaves {
		t.leaves = append(t.leaves, l)
		addr, err := l.Start("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("start leaf: %w", err)
		}
		t.leafAddrs = append(t.leafAddrs, addr)
	}
	return nil
}

// startMid connects the mid-tier to the leaves and starts it.
func (t *tierSet) startMid(mid *core.MidTier) error {
	t.mid = mid
	if err := mid.ConnectLeaves(t.leafAddrs); err != nil {
		return fmt.Errorf("connect leaves: %w", err)
	}
	addr, err := mid.Start("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("start mid-tier: %w", err)
	}
	t.midAddr = addr
	return nil
}

// dialLeaves opens the benchmark's own connection to every leaf, used to
// time leaf RPCs directly.
func (t *tierSet) dialLeaves() error {
	for _, a := range t.leafAddrs {
		c, err := rpc.Dial(a, nil)
		if err != nil {
			return fmt.Errorf("dial leaf %s: %w", a, err)
		}
		t.direct = append(t.direct, c)
	}
	return nil
}

func (t *tierSet) tiers() (string, []string) { return t.midAddr, t.leafAddrs }

func (t *tierSet) close() {
	for _, c := range t.direct {
		c.Close()
	}
	if t.mid != nil {
		t.mid.Close()
	}
	for _, l := range t.leaves {
		l.Close()
	}
}

// --- direct layer timing ---

// layer is one timed call in a replayed request: a direct child of the
// request span, or of another layer.  The remainder of a layer with
// children is its self time and gets its own span.
type layer struct {
	name     string
	dur      time.Duration
	children []layer
	rest     string // name of the self-time span when children exist
}

// replayRecord is one replayed request: its end-to-end time and the layers
// on its critical path, plus named per-request values for the metrics.
type replayRecord struct {
	name   string
	e2e    time.Duration
	layers []layer
	vals   map[string]float64
}

// timed runs f and returns how long it took.
func timed(f func() error) (time.Duration, error) {
	t := time.Now()
	err := f()
	return time.Since(t), err
}

// timedEach runs f n times and returns the mean time per call, for
// operations shorter than the clock's own overhead.
func timedEach(n int, f func()) time.Duration {
	t := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(t) / time.Duration(n)
}

// echoMethod is served by the benchmark's own rpc echo server: the request
// carries the reply size in its first four bytes.
const echoMethod = "perfbench.echo"

// startEcho starts a bare rpc.Server that answers with the requested number
// of bytes, so a leaf RPC can be compared to a pure RPC round trip with the
// same message sizes.
func startEcho() (*rpc.Server, *rpc.Client, error) {
	zeros := make([]byte, 1<<22)
	srv := rpc.NewServer(func(req *rpc.Request) {
		if len(req.Payload) < 4 {
			req.ReplyError(fmt.Errorf("echo: short request"))
			return
		}
		n := binary.LittleEndian.Uint32(req.Payload)
		if int(n) > len(zeros) {
			n = uint32(len(zeros))
		}
		req.Reply(zeros[:n])
	}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("start echo: %w", err)
	}
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		srv.Close()
		return nil, nil, fmt.Errorf("dial echo: %w", err)
	}
	return srv, c, nil
}

// echoRTT times one echo round trip carrying reqBytes and returning
// replyBytes.
func echoRTT(c *rpc.Client, reqBytes, replyBytes int) (time.Duration, error) {
	if reqBytes < 4 {
		reqBytes = 4
	}
	p := make([]byte, reqBytes)
	binary.LittleEndian.PutUint32(p, uint32(replyBytes))
	return timed(func() error {
		_, err := c.Call(echoMethod, p)
		return err
	})
}

// leafLayer builds the slowest leaf's RPC layer: its compute children, the
// echo round trip with the same sizes, and the overhead remainder.
func leafLayer(rpcDur time.Duration, compute []layer, echo time.Duration) layer {
	return layer{
		name:     "core.leaf.rpc",
		dur:      rpcDur,
		children: append(compute, layer{name: "rpc.echo_rtt", dur: echo}),
		rest:     "core.leaf.overhead",
	}
}

// selfOf returns d minus the durations of the given layers.
func selfOf(d time.Duration, ls ...layer) time.Duration {
	for _, l := range ls {
		d -= l.dur
	}
	return d
}
