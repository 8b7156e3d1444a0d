package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"musuite/internal/cluster"
	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/memcache"
	"musuite/internal/rpc"
	"musuite/internal/services/router"
	"musuite/internal/trace"
	"musuite/internal/wire"
)

// router-kv inputs: a Zipf-popular key population, every key written before
// measurement, 64-byte values and a 50/50 get/set mix.
const (
	kvKeys      = 10000
	kvValueSize = 64
	kvLeaves    = 4
	kvReplicas  = 2
	kvStream    = 1 << 17 // operations generated per run; the stream cycles
	kvSample    = 400     // sequential gets of the quality sample
)

type kvOp struct {
	set bool
	key int32
}

type routerKV struct {
	tierSet
	client  *router.Client
	keys    []string
	keyIdx  map[string]int32
	ops     []kvOp
	version []atomic.Uint32 // latest version issued per key
	// scratch is a benchmark-owned store holding the same keys, on which
	// the memcache layer is timed directly.
	scratch *memcache.Store
	seed    int64
}

// kvValue is the value the benchmark writes as version ver of key k: the
// key and version in the first eight bytes, then bytes derived from both,
// so any reply can be traced back to the write that produced it.
func kvValue(k int32, ver uint32) []byte {
	v := make([]byte, kvValueSize)
	kvFill(v, k, ver)
	return v
}

func kvFill(v []byte, k int32, ver uint32) {
	binary.LittleEndian.PutUint32(v, uint32(k))
	binary.LittleEndian.PutUint32(v[4:], ver)
	x := uint64(k)<<32 | uint64(ver)
	for i := 8; i < len(v); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v[i] = byte(x >> 56)
	}
}

func deployRouter(seed int64) (deployment, error) {
	d := &routerKV{seed: seed}
	d.keys = make([]string, kvKeys)
	d.keyIdx = make(map[string]int32, kvKeys)
	names := kvTrace(seed)
	for i := range d.keys {
		d.keys[i] = names.Key(uint64(i))
		d.keyIdx[d.keys[i]] = int32(i)
	}
	d.version = make([]atomic.Uint32, kvKeys)

	leaves := make([]*core.Leaf, kvLeaves)
	for i := range leaves {
		leaves[i] = router.NewLeaf(memcache.New(memcache.Config{}), leafOptions())
	}
	if err := d.startLeaves(leaves); err != nil {
		d.close()
		return nil, err
	}
	if err := d.startMid(router.NewMidTier(router.MidTierConfig{Replicas: kvReplicas, Core: midOptions()})); err != nil {
		d.close()
		return nil, err
	}
	c, err := router.DialClient(d.midAddr, nil)
	if err != nil {
		d.close()
		return nil, err
	}
	d.client = c
	if err := d.warm(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// warm writes version 1 of every key through the mid-tier, pipelined.
func (d *routerKV) warm() error {
	const inflight = 64
	done := make(chan *rpc.Call, inflight)
	wait := func() error {
		call := <-done
		defer call.Release()
		return call.Err
	}
	for k := range d.keys {
		if k >= inflight {
			if err := wait(); err != nil {
				return fmt.Errorf("warm-up set: %w", err)
			}
		}
		d.version[k].Store(1)
		d.client.GoSet(d.keys[k], kvValue(int32(k), 1), done)
	}
	for i := 0; i < min(inflight, len(d.keys)); i++ {
		if err := wait(); err != nil {
			return fmt.Errorf("warm-up set: %w", err)
		}
	}
	return nil
}

func kvTrace(seed int64) *dataset.KVTrace {
	return dataset.NewKVTrace(dataset.KVTraceConfig{Keys: kvKeys, ValueSize: kvValueSize, GetFraction: 0.5, Seed: seed})
}

// prepare generates the operation stream and fills the benchmark's own
// store for the memcache timings.
func (d *routerKV) prepare() error {
	trace := kvTrace(d.seed)
	d.ops = make([]kvOp, kvStream)
	for i := range d.ops {
		op := trace.Next()
		d.ops[i] = kvOp{set: op.Kind == dataset.KVSet, key: d.keyIdx[op.Key]}
	}
	d.scratch = memcache.New(memcache.Config{})
	for k, key := range d.keys {
		d.scratch.Set(key, kvValue(int32(k), 1), 0)
	}
	return d.dialLeaves()
}

func (d *routerKV) issue(seq int, sc trace.SpanContext, done chan *rpc.Call) *rpc.Call {
	op := d.ops[seq%len(d.ops)]
	key := d.keys[op.key]
	if !op.set {
		if sc.Sampled() {
			return d.client.GoGetSpan(key, sc, done)
		}
		return d.client.GoGet(key, done)
	}
	v := kvValue(op.key, d.version[op.key].Add(1))
	if sc.Sampled() {
		return d.client.GoSetSpan(key, v, sc, done)
	}
	return d.client.GoSet(key, v, done)
}

// check requires every get to hit and to return a value the benchmark
// wrote for that key: a version already issued, byte for byte.  Request and
// reply are read in place, so checking allocates nothing.
func (d *routerKV) check(call *rpc.Call) error {
	if call.Method == router.MethodSet {
		if len(call.Reply) != 0 {
			return fmt.Errorf("router set: unexpected reply of %d bytes", len(call.Reply))
		}
		return nil
	}
	req := wire.NewDecoder(call.Payload)
	key := req.BytesView()
	resp := wire.NewDecoder(call.Reply)
	found := resp.Bool()
	value := resp.BytesView()
	if err := errors.Join(req.Err(), resp.Err()); err != nil {
		return fmt.Errorf("router get: %w", err)
	}
	k, ok := d.keyIdx[string(key)]
	if !ok {
		return fmt.Errorf("router get: unknown key %q", key)
	}
	return d.checkValue(k, found, value)
}

func (d *routerKV) checkValue(k int32, found bool, value []byte) error {
	if !found {
		return fmt.Errorf("router get %s: miss on a written key", d.keys[k])
	}
	if len(value) != kvValueSize || int32(binary.LittleEndian.Uint32(value)) != k {
		return fmt.Errorf("router get %s: value belongs to another key", d.keys[k])
	}
	ver := binary.LittleEndian.Uint32(value[4:])
	var want [kvValueSize]byte
	kvFill(want[:], k, ver)
	if ver == 0 || ver > d.version[k].Load() || !bytes.Equal(value, want[:]) {
		return fmt.Errorf("router get %s: value version %d was never written", d.keys[k], ver)
	}
	return nil
}

func (d *routerKV) quality() (float64, error) {
	ok := 0
	for i := 0; i < kvSample; i++ {
		k := int32((i * 7919) % len(d.keys))
		v, found, err := d.client.Get(d.keys[k])
		if err != nil {
			return 0, err
		}
		if d.checkValue(k, found, v) == nil {
			ok++
		}
	}
	return float64(ok) / kvSample, nil
}

// replay times one get or set through the mid-tier, then its layers
// directly: the routing function, the leaf RPC (slowest replica for a
// set), the memcache operation and an echo of the same sizes.
func (d *routerKV) replay(seq int, echo *rpc.Client) (replayRecord, error) {
	op := d.ops[seq%len(d.ops)]
	key := d.keys[op.key]
	r := replayRecord{vals: map[string]float64{}}
	var reqPayload, replyPayload []byte
	method := router.MethodGet
	var value []byte
	if op.set {
		method = router.MethodSet
		value = kvValue(op.key, d.version[op.key].Add(1))
		reqPayload = router.EncodeKeyValue(key, value)
		var err error
		r.e2e, err = timed(func() error { return d.client.Set(key, value) })
		if err != nil {
			return r, err
		}
		r.vals["router.set_us"] = us(r.e2e)
	} else {
		reqPayload = router.EncodeKey(key)
		var got []byte
		var found bool
		var err error
		r.e2e, err = timed(func() error {
			got, found, err = d.client.Get(key)
			return err
		})
		if err != nil {
			return r, err
		}
		if err := d.checkValue(op.key, found, got); err != nil {
			return r, err
		}
		replyPayload = router.EncodeGetResponse(true, got)
		r.vals["router.get_us"] = us(r.e2e)
	}
	r.name = method

	var shards []int
	route := timedEach(64, func() { shards = router.ReplicasRouted(key, cluster.Modulo{}, kvLeaves, kvReplicas) })
	if !op.set {
		// A get reads one replica; time the primary.
		shards = shards[:1]
	}
	var slow time.Duration
	var slowReply []byte
	for _, s := range shards {
		var reply []byte
		dur, err := timed(func() error {
			var err error
			reply, err = d.direct[s].Call(method, reqPayload)
			return err
		})
		if err != nil {
			return r, fmt.Errorf("direct leaf %d: %w", s, err)
		}
		if dur > slow {
			slow, slowReply = dur, reply
		}
	}
	var store time.Duration
	storeName := "memcache.get"
	if op.set {
		storeName = "memcache.set"
		store = timedEach(64, func() { d.scratch.Set(key, value, 0) })
		r.vals["memcache.set_ns"] = float64(store)
	} else {
		store = timedEach(64, func() { d.scratch.Get(key) })
		r.vals["memcache.get_ns"] = float64(store)
	}
	rtt, err := echoRTT(echo, len(reqPayload), len(slowReply))
	if err != nil {
		return r, err
	}
	index := layer{name: "router.route", dur: route}
	leaf := leafLayer(slow, []layer{{name: storeName, dur: store}}, rtt)
	r.layers = []layer{index, leaf}
	r.vals["router.route_ns"] = float64(route)
	r.vals["core.leaf.rpc_us"] = us(slow)
	r.vals["core.leaf.overhead_us"] = us(selfOf(slow, leaf.children...))
	r.vals["rpc.echo_rtt_us"] = us(rtt)
	r.vals["core.midtier.self_us"] = us(selfOf(r.e2e, index, leaf))
	r.vals["wire.req_bytes"] = float64(len(reqPayload))
	r.vals["wire.reply_bytes"] = float64(len(replyPayload))
	r.vals["wire.leaf_req_bytes"] = float64(len(reqPayload) * len(shards))
	return r, nil
}

func (d *routerKV) close() {
	if d.client != nil {
		d.client.Close()
	}
	d.tierSet.close()
}
