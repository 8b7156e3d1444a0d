package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"musuite/internal/trace"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// self-test checks the command against.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// BENCHMARK.json and the command's own configuration name the same
// workloads, reasons and metrics with the same units.
func TestBenchmarkJSONMatchesConfig(t *testing.T) {
	spec := loadBenchmarkSpec(t)
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(cfg.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, config %d", len(spec.Workloads), len(cfg.Workloads))
	}
	for _, w := range spec.Workloads {
		c, ok := cfg.Workloads[w.Name]
		if !ok || deployers[w.Name] == nil {
			t.Fatalf("workload %s is not runnable", w.Name)
		}
		if c.Why != w.Why {
			t.Errorf("workload %s: why differs between BENCHMARK.json and config.json", w.Name)
		}
		if c.LowQPS <= 0 || c.HighQPS <= c.LowQPS || c.P99LimitMS <= 0 || len(c.LadderQPS) == 0 ||
			!sort.Float64sAreSorted(c.LadderQPS) || c.LadderQPS[0] <= c.HighQPS {
			t.Errorf("workload %s: rates %v/%v, ladder %v, limit %v", w.Name, c.LowQPS, c.HighQPS, c.LadderQPS, c.P99LimitMS)
		}
	}
	if len(spec.EndToEnd) != len(cfg.EndToEnd) || len(spec.PerLayer) != len(cfg.PerLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(spec.EndToEnd), len(cfg.EndToEnd), len(spec.PerLayer), len(cfg.PerLayer))
	}
	for _, m := range spec.EndToEnd {
		if cfg.EndToEnd[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q in config", m.Name, m.Unit, cfg.EndToEnd[m.Name].Unit)
		}
	}
	for _, m := range spec.PerLayer {
		c := cfg.PerLayer[m.Name]
		if c.Unit != m.Unit || c.Moves == "" {
			t.Errorf("per-layer %s: unit %q in BENCHMARK.json, %q in config, prediction %q", m.Name, m.Unit, c.Unit, c.Moves)
		}
	}
}

// smokeSeconds keeps the self-test short; rates stay those of the real run.
const smokeSeconds = 6

// Every workload, end-to-end and traced, reports every metric that
// BENCHMARK.json names, finite and with its unit, and the traced run's span
// file passes cmd/traceview's check.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys every workload")
	}
	spec := loadBenchmarkSpec(t)
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	// The lateness guard has its own tests; here a busy shared host must
	// not stop the metrics from being checked.
	cfg.LatenessP99LimitUS = 1e6
	dir := t.TempDir()
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 3, seconds: smokeSeconds, traced: traced, outDir: dir}
			res, record, err := run(cfg, o, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if record["host"] == nil || !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: record %v, result %+v", w.Name, traced, record, res)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced {
				if res.Failed != 0 || res.Metrics["ok_frac"].Value != 1 {
					t.Errorf("%s: %d failed requests", w.Name, res.Failed)
				}
				continue
			}
			spans, err := trace.ReadFile(spanPath(o))
			if err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 {
				t.Fatalf("%s: empty span file", w.Name)
			}
			out, err := exec.Command("go", "run", "musuite/cmd/traceview", "-check", spanPath(o)).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: traceview -check: %v\n%s", w.Name, err, out)
			}
		}
	}
}
