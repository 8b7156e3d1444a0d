package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"musuite/internal/trace"
)

// replayFixtures are replayed requests in the shapes the workloads record,
// including layers that took longer when timed directly than the request
// did end to end.
func replayFixtures() []replayRecord {
	us := time.Microsecond
	return []replayRecord{
		{name: "hdsearch.search", e2e: 700 * us, layers: []layer{
			{name: "lsh.lookup", dur: 300 * us},
			leafLayer(150*us, []layer{{name: "kernel.scan", dur: 30 * us}}, 60*us),
			{name: "kernel.merge", dur: 6 * us},
		}},
		{name: "router.get", e2e: 140 * us, layers: []layer{
			{name: "router.route", dur: 110 * time.Nanosecond},
			leafLayer(70*us, []layer{{name: "memcache.get", dur: 340 * time.Nanosecond}}, 80*us),
		}},
		{name: "setalgebra.search", e2e: 50 * us, layers: []layer{
			leafLayer(60*us, []layer{{name: "postlist.intersect", dur: 2 * us}, {name: "leaf.encode", dur: us}}, 40*us),
			{name: "postlist.union", dur: 2 * us},
		}},
	}
}

func overrun(s trace.Span) int64 {
	for _, n := range s.Notes {
		if v, ok := strings.CutPrefix(n, "overrun_ns="); ok {
			o, _ := strconv.ParseInt(v, 10, 64)
			return o
		}
	}
	return 0
}

// The replay's span file round-trips through the trace import, forms one
// connected tree per request whose critical path sums to its end-to-end
// span (what cmd/traceview -check requires), and under every span the
// direct children's durations, less any recorded overrun, equal the span's
// own duration: the layers plus the remainder are the end-to-end time.
func TestReplaySpansRoundTripAndAddUp(t *testing.T) {
	rec := trace.NewRecorder("perfbench", 0)
	end := time.Unix(1_700_000_000, 0)
	fixtures := replayFixtures()
	for i, r := range fixtures {
		recordReplaySpans(rec, r, end.Add(time.Duration(i)*time.Millisecond))
	}
	var buf bytes.Buffer
	if err := trace.WriteSpans(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	spans, err := trace.ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := trace.WriteSpans(&again, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("span file changed across a write/read/write round trip")
	}
	if len(spans) != rec.Len() {
		t.Fatalf("round trip read %d of %d spans", len(spans), rec.Len())
	}

	trees := trace.BuildTrees(spans)
	if len(trees) != len(fixtures) {
		t.Fatalf("%d trees for %d requests", len(trees), len(fixtures))
	}
	overruns := 0
	for _, tr := range trees {
		if !tr.Connected() {
			t.Fatalf("trace %v is not connected", tr.TraceID)
		}
		if got, want := trace.PathTotal(tr.CriticalPath()), tr.EndToEnd(); got != want {
			t.Fatalf("critical path %v, end-to-end %v", got, want)
		}
		var walk func(n *trace.Node)
		walk = func(n *trace.Node) {
			if len(n.Children) == 0 {
				return
			}
			var sum int64
			for _, c := range n.Children {
				sum += c.Span.Duration
				walk(c)
			}
			if o := overrun(n.Span); o > 0 {
				overruns++
				sum -= o
			}
			if sum != n.Span.Duration {
				t.Errorf("%s: children sum to %d ns, span is %d ns", n.Span.Name, sum, n.Span.Duration)
			}
		}
		walk(tr.Root())
	}
	// The setalgebra fixture's leaf layers (60µs + 2µs) exceed its 50µs.
	if overruns == 0 {
		t.Fatal("no overrun recorded for layers longer than the request")
	}
}
