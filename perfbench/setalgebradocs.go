package main

import (
	"fmt"
	"time"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/postlist"
	"musuite/internal/rpc"
	"musuite/internal/services/setalgebra"
	"musuite/internal/trace"
	"musuite/internal/wire"
)

// setalgebra-docs inputs: a Zipf-worded corpus on four shards, each with
// its ten most frequent terms stop-listed, queried with up to ten terms.
const (
	saDocs      = 50000
	saVocab     = 20000
	saDocLen    = 60
	saShards    = 4
	saStopTerms = 10
	saMaxTerms  = 10
	saQueries   = 16384
	saSample    = 200 // sequential queries of the quality sample
)

type setalgebraDocs struct {
	tierSet
	client  *setalgebra.Client
	corpus  *dataset.DocCorpus
	shards  []setalgebra.LeafData
	queries [][]int
	byReq   map[string]int // encoded request → query index
	// wantLen and wantSum are each query's reference result: its length
	// and an FNV-1a hash of its IDs.
	wantLen []int
	wantSum []uint64
	seed    int64
	// got is the reply buffer check reuses; only the collector calls check.
	got []uint32
}

func deploySetAlgebra(seed int64) (deployment, error) {
	d := &setalgebraDocs{}
	d.corpus = dataset.NewDocCorpus(dataset.DocCorpusConfig{Docs: saDocs, VocabSize: saVocab, MeanDocLen: saDocLen, Seed: seed})
	d.shards = setalgebra.ShardCorpus(d.corpus, saShards, saStopTerms)
	leaves := make([]*core.Leaf, saShards)
	for s := range leaves {
		leaves[s] = setalgebra.NewLeaf(d.shards[s], leafOptions())
	}
	if err := d.startLeaves(leaves); err != nil {
		d.close()
		return nil, err
	}
	opts := midOptions()
	if err := d.startMid(setalgebra.NewMidTier(&opts)); err != nil {
		d.close()
		return nil, err
	}
	c, err := setalgebra.DialClient(d.midAddr, nil)
	if err != nil {
		d.close()
		return nil, err
	}
	d.client = c
	d.seed = seed
	return d, nil
}

// prepare generates the queries and builds the reference: one unsharded
// postlist index over the whole corpus.  Sharded and unsharded answers
// agree only when every shard stop-lists the same terms as the whole
// corpus, so that is checked first.
func (d *setalgebraDocs) prepare() error {
	ref := postlist.BuildIndex(d.corpus.Docs, postlist.IndexConfig{StopTerms: saStopTerms})
	for w := 0; w < d.corpus.VocabSize; w++ {
		for s, sh := range d.shards {
			if sh.Index.IsStopWord(w) != ref.IsStopWord(w) {
				return fmt.Errorf("setalgebra reference: shard %d stop list differs from the corpus's at term %d", s, w)
			}
		}
	}
	d.queries = d.corpus.Queries(saQueries, saMaxTerms, d.seed)
	d.byReq = make(map[string]int, len(d.queries))
	d.wantLen = make([]int, len(d.queries))
	d.wantSum = make([]uint64, len(d.queries))
	for i, q := range d.queries {
		d.byReq[string(setalgebra.EncodeTerms(q))] = i
		want := ref.Search(q)
		d.wantLen[i], d.wantSum[i] = len(want), idHash(want)
	}
	return d.dialLeaves()
}

func (d *setalgebraDocs) issue(seq int, sc trace.SpanContext, done chan *rpc.Call) *rpc.Call {
	q := d.queries[seq%len(d.queries)]
	if sc.Sampled() {
		return d.client.GoSpan(q, sc, done)
	}
	return d.client.Go(q, done)
}

func (d *setalgebraDocs) check(call *rpc.Call) error {
	i, ok := d.byReq[string(call.Payload)]
	if !ok {
		return fmt.Errorf("setalgebra: reply to an unknown request")
	}
	// The reply is setalgebra.EncodeDocIDs's list, decoded into a reused
	// buffer so checking allocates nothing.
	dec := wire.NewDecoder(call.Reply)
	d.got = dec.Uint32sInto(d.got[:0])
	if err := dec.Err(); err != nil {
		return fmt.Errorf("setalgebra: %w", err)
	}
	return d.checkIDs(i, d.got)
}

func (d *setalgebraDocs) checkIDs(i int, got []uint32) error {
	if len(got) != d.wantLen[i] || idHash(got) != d.wantSum[i] {
		return fmt.Errorf("setalgebra: query %v returned %d docs, not the reference's %d", d.queries[i], len(got), d.wantLen[i])
	}
	return nil
}

// idHash is the FNV-1a hash of a doc-ID list.
func idHash(ids []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(id >> s))
			h *= 1099511628211
		}
	}
	return h
}

func (d *setalgebraDocs) quality() (float64, error) {
	ok := 0
	for i := 0; i < saSample; i++ {
		got, err := d.client.Search(d.queries[i])
		if err != nil {
			return 0, err
		}
		if d.checkIDs(i, got) == nil {
			ok++
		}
	}
	return float64(ok) / saSample, nil
}

// replay times one search through the mid-tier, then directly: every
// shard's leaf RPC with the mid-tier's payload, that shard's posting-list
// intersection and reply encoding, an echo with the slowest leaf's sizes,
// and the mid-tier's k-way union of the leaf replies.
func (d *setalgebraDocs) replay(seq int, echo *rpc.Client) (replayRecord, error) {
	i := seq % len(d.queries)
	q := d.queries[i]
	payload := setalgebra.EncodeTerms(q)
	r := replayRecord{name: setalgebra.MethodSearch, vals: map[string]float64{}}
	var got []uint32
	var err error
	r.e2e, err = timed(func() error {
		got, err = d.client.Search(q)
		return err
	})
	if err != nil {
		return r, err
	}
	if err := d.checkIDs(i, got); err != nil {
		return r, err
	}
	var slow, slowSearch, slowEncode time.Duration
	var maxSearch time.Duration
	var slowReply int
	replies := make([][]byte, 0, len(d.shards))
	for s, sh := range d.shards {
		var reply []byte
		dur, err := timed(func() error {
			var err error
			reply, err = d.direct[s].Call(setalgebra.MethodIntersect, payload)
			return err
		})
		if err != nil {
			return r, fmt.Errorf("direct leaf %d: %w", s, err)
		}
		replies = append(replies, reply)
		var local []uint32
		search, _ := timed(func() error { local = sh.Index.Search(q); return nil })
		encode, err := timed(func() error {
			global := make([]uint32, len(local))
			for j, id := range local {
				global[j] = sh.GlobalID[id]
			}
			_, err := postlist.CompressIDs(global)
			return err
		})
		if err != nil {
			return r, err
		}
		maxSearch = max(maxSearch, search)
		if dur > slow {
			slow, slowSearch, slowEncode, slowReply = dur, search, encode, len(reply)
		}
	}
	var union []uint32
	merge, err := timed(func() error {
		segs := make([][]uint32, 0, len(replies))
		for _, b := range replies {
			ids, err := postlist.DecompressIDs(b)
			if err != nil {
				return err
			}
			if len(ids) > 0 {
				segs = append(segs, ids)
			}
		}
		union = postlist.MergeSortedInto(nil, segs)
		return nil
	})
	if err != nil {
		return r, err
	}
	if len(union) != len(got) {
		return r, fmt.Errorf("setalgebra replay: union of direct leaf replies has %d docs, mid-tier %d", len(union), len(got))
	}
	rtt, err := echoRTT(echo, len(payload), slowReply)
	if err != nil {
		return r, err
	}
	leaf := leafLayer(slow, []layer{{name: "postlist.intersect", dur: slowSearch}, {name: "leaf.encode", dur: slowEncode}}, rtt)
	r.layers = []layer{leaf, {name: "postlist.union", dur: merge}}
	r.vals["postlist.intersect_us"] = us(maxSearch)
	r.vals["postlist.union_us"] = us(merge)
	r.vals["postlist.result_ids"] = float64(len(got))
	r.vals["core.leaf.rpc_us"] = us(slow)
	r.vals["core.leaf.overhead_us"] = us(selfOf(slow, leaf.children...))
	r.vals["rpc.echo_rtt_us"] = us(rtt)
	r.vals["core.midtier.self_us"] = us(selfOf(r.e2e, leaf))
	r.vals["wire.req_bytes"] = float64(len(payload))
	r.vals["wire.reply_bytes"] = float64(len(setalgebra.EncodeDocIDs(got)))
	r.vals["wire.leaf_req_bytes"] = float64(len(payload) * len(d.shards))
	return r, nil
}

func (d *setalgebraDocs) close() {
	if d.client != nil {
		d.client.Close()
	}
	d.tierSet.close()
}
