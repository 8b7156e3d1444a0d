package main

import (
	"fmt"
	"math"
	"time"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/kernel"
	"musuite/internal/knn"
	"musuite/internal/lsh"
	"musuite/internal/rpc"
	"musuite/internal/services/hdsearch"
	"musuite/internal/trace"
	"musuite/internal/vec"
)

// hdsearch-lsh inputs: a 20k × 64-d clustered corpus on four shards behind
// the mid-tier's LSH tables, queried with perturbed corpus points for the
// 10 nearest neighbours.
const (
	hdPoints   = 20000
	hdDim      = 64
	hdClusters = 16
	hdShards   = 4
	hdK        = 10
	hdQueries  = 16384
	hdSample   = 200 // queries in the recall sample
)

type hdsearchLSH struct {
	tierSet
	client  *hdsearch.Client
	corpus  *dataset.ImageCorpus
	shards  []hdsearch.LeafData
	index   *lsh.Index
	queries []vec.Vector
	byReq   map[string]int // encoded request → query index
	eng     *kernel.Engine
	truth   [][]knn.Neighbor // brute-force top-k of the recall sample
	// got is the reply buffer check reuses; only the collector calls check.
	got  []hdsearch.Neighbor
	seed int64
}

func deployHDSearch(seed int64) (deployment, error) {
	d := &hdsearchLSH{}
	d.corpus = dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: hdPoints, Dim: hdDim, Clusters: hdClusters, Seed: seed})
	d.shards = hdsearch.ShardCorpus(d.corpus, hdShards)
	idx, err := hdsearch.BuildIndex(d.shards, hdsearch.IndexConfig{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("build lsh index: %w", err)
	}
	d.index = idx
	leaves := make([]*core.Leaf, hdShards)
	for s := range leaves {
		leaves[s] = hdsearch.NewLeaf(d.shards[s], leafOptions())
	}
	if err := d.startLeaves(leaves); err != nil {
		d.close()
		return nil, err
	}
	opts := midOptions()
	if err := d.startMid(hdsearch.NewMidTier(idx, &opts)); err != nil {
		d.close()
		return nil, err
	}
	c, err := hdsearch.DialClient(d.midAddr, nil)
	if err != nil {
		d.close()
		return nil, err
	}
	d.client = c
	d.seed = seed
	return d, nil
}

// prepare generates the queries and computes brute-force ground truth for
// the recall sample with the kernel engine's full scan over an unsharded
// store.
func (d *hdsearchLSH) prepare() error {
	d.queries = d.corpus.Queries(hdQueries, d.seed)
	d.byReq = make(map[string]int, len(d.queries))
	for i, q := range d.queries {
		d.byReq[string(hdsearch.EncodeSearchRequest(q, hdK))] = i
	}
	full, err := kernel.BuildStore(d.corpus.Vectors)
	if err != nil {
		return fmt.Errorf("ground-truth store: %w", err)
	}
	d.eng = kernel.New(kernel.Config{})
	d.truth = make([][]knn.Neighbor, hdSample)
	for i := range d.truth {
		d.truth[i], err = d.eng.Scan(full, d.queries[i], hdK, nil)
		if err != nil {
			return fmt.Errorf("ground truth: %w", err)
		}
	}
	return d.dialLeaves()
}

func (d *hdsearchLSH) issue(seq int, sc trace.SpanContext, done chan *rpc.Call) *rpc.Call {
	q := d.queries[seq%len(d.queries)]
	if sc.Sampled() {
		return d.client.GoSpan(q, hdK, sc, done)
	}
	return d.client.Go(q, hdK, done)
}

func (d *hdsearchLSH) check(call *rpc.Call) error {
	i, ok := d.byReq[string(call.Payload)]
	if !ok {
		return fmt.Errorf("hdsearch: reply to an unknown request")
	}
	var err error
	d.got, err = hdsearch.DecodeNeighborsInto(d.got[:0], call.Reply)
	if err != nil {
		return fmt.Errorf("hdsearch: %w", err)
	}
	return d.checkNeighbors(d.queries[i], d.got)
}

// checkNeighbors requires at most k distinct corpus points in ascending
// distance order, each with its exact squared distance to the query.  LSH
// may miss true neighbours (that is recall), but never misreport one.
func (d *hdsearchLSH) checkNeighbors(q vec.Vector, ns []hdsearch.Neighbor) error {
	if len(ns) > hdK {
		return fmt.Errorf("hdsearch: %d neighbours for k=%d", len(ns), hdK)
	}
	for j, n := range ns {
		if int(n.PointID) >= len(d.corpus.Vectors) {
			return fmt.Errorf("hdsearch: bad point %d", n.PointID)
		}
		for _, m := range ns[:j] {
			if m.PointID == n.PointID {
				return fmt.Errorf("hdsearch: repeated point %d", n.PointID)
			}
		}
		if j > 0 && n.Distance < ns[j-1].Distance {
			return fmt.Errorf("hdsearch: neighbours out of distance order")
		}
		var want float64
		for x, v := range d.corpus.Vectors[n.PointID] {
			diff := float64(q[x]) - float64(v)
			want += diff * diff
		}
		if math.Abs(float64(n.Distance)-want) > 1e-3+1e-4*want {
			return fmt.Errorf("hdsearch: point %d distance %g, exact %g", n.PointID, n.Distance, want)
		}
	}
	return nil
}

func (d *hdsearchLSH) quality() (float64, error) {
	var sum float64
	for i, truth := range d.truth {
		got, err := d.client.Search(d.queries[i], hdK)
		if err != nil {
			return 0, err
		}
		if err := d.checkNeighbors(d.queries[i], got); err != nil {
			return 0, err
		}
		want := make(map[uint32]bool, len(truth))
		for _, n := range truth {
			want[n.ID] = true
		}
		hit := 0
		for _, n := range got {
			if want[n.PointID] {
				hit++
			}
		}
		sum += float64(hit) / float64(len(truth))
	}
	return sum / float64(len(d.truth)), nil
}

// replay times one search through the mid-tier, then directly: the LSH
// lookup, every shard's leaf RPC with the mid-tier's payload and its kernel
// scan, an echo with the slowest leaf's sizes, and the top-k merge.
func (d *hdsearchLSH) replay(seq int, echo *rpc.Client) (replayRecord, error) {
	q := d.queries[seq%len(d.queries)]
	r := replayRecord{name: hdsearch.MethodSearch, vals: map[string]float64{}}
	var got []hdsearch.Neighbor
	var err error
	r.e2e, err = timed(func() error {
		got, err = d.client.Search(q, hdK)
		return err
	})
	if err != nil {
		return r, err
	}
	if err := d.checkNeighbors(q, got); err != nil {
		return r, err
	}
	var byShard map[int32][]uint32
	lookup, _ := timed(func() error { byShard = d.index.LookupByShard(q); return nil })
	candidates, leafBytes := 0, 0
	var slow, slowScan, scanSum time.Duration
	var slowReq, slowReply int
	var replies [][]byte
	for s, ids := range byShard {
		candidates += len(ids)
		payload := hdsearch.EncodeLeafRequest(q, ids, hdK)
		leafBytes += len(payload)
		var reply []byte
		dur, err := timed(func() error {
			var err error
			reply, err = d.direct[s].Call(hdsearch.MethodLeafKNN, payload)
			return err
		})
		if err != nil {
			return r, fmt.Errorf("direct leaf %d: %w", s, err)
		}
		replies = append(replies, reply)
		scan, err := timed(func() error {
			_, err := d.eng.ScanSubset(d.shards[s].Store, q, ids, hdK, nil)
			return err
		})
		if err != nil {
			return r, err
		}
		scanSum += scan
		if dur > slow {
			slow, slowScan, slowReq, slowReply = dur, scan, len(payload), len(reply)
		}
	}
	var top kernel.TopK
	merge, err := timed(func() error {
		top.Reset(hdK)
		for _, b := range replies {
			ns, err := hdsearch.DecodeNeighbors(b)
			if err != nil {
				return err
			}
			for _, n := range ns {
				top.Consider(n.PointID, n.Distance)
			}
		}
		top.AppendSorted(nil)
		return nil
	})
	if err != nil {
		return r, err
	}
	rtt, err := echoRTT(echo, slowReq, slowReply)
	if err != nil {
		return r, err
	}
	index := layer{name: "lsh.lookup", dur: lookup}
	leaf := leafLayer(slow, []layer{{name: "kernel.scan", dur: slowScan}}, rtt)
	r.layers = []layer{index, leaf, {name: "kernel.merge", dur: merge}}
	r.vals["lsh.lookup_us"] = us(lookup)
	r.vals["lsh.candidates"] = float64(candidates)
	r.vals["kernel.scan_us"] = us(slowScan)
	r.vals["kernel.scan_sum_us"] = us(scanSum)
	r.vals["kernel.merge_us"] = us(merge)
	r.vals["core.leaf.rpc_us"] = us(slow)
	r.vals["core.leaf.overhead_us"] = us(selfOf(slow, leaf.children...))
	r.vals["rpc.echo_rtt_us"] = us(rtt)
	r.vals["core.midtier.self_us"] = us(selfOf(r.e2e, index, leaf))
	r.vals["wire.req_bytes"] = float64(len(hdsearch.EncodeSearchRequest(q, hdK)))
	r.vals["wire.reply_bytes"] = float64(len(hdsearch.EncodeNeighbors(got)))
	r.vals["wire.leaf_req_bytes"] = float64(leafBytes)
	return r, nil
}

func (d *hdsearchLSH) close() {
	if d.client != nil {
		d.client.Close()
	}
	d.tierSet.close()
}
