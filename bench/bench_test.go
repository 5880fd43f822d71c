package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// smokeConfig is a pass short enough for `go test -race`: the same code
// path as a real pass — set-up with prefill, warm-up, window, nemesis,
// correctness gate — over a twentieth of the real durations. Under the race
// detector the reference kernel takes half of the window and an operation
// ten times as long, so anything shorter leaves a class without a sample.
func smokeConfig(wl workload, traced bool) runConfig {
	return runConfig{wl: wl, seed: 1, warmup: 50 * time.Millisecond, window: 900 * time.Millisecond,
		slice: 300 * time.Millisecond, traced: traced, setups: 1}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			res, err := run(smokeConfig(wl, false))
			if err != nil {
				t.Fatal(err) // includes any miss of the correctness gate
			}
			if res.failed != 0 {
				t.Errorf("%d of %d operations failed; the workloads are chosen so that none does", res.failed, res.attempted)
			}
			for _, def := range endToEnd {
				if v, ok := res.metrics[def.Name]; !ok || v.V <= 0 {
					t.Errorf("end-to-end metric %s = %v (measured: %v); it must be reported and never 0", def.Name, v.V, ok)
				}
			}
		})
	}
}

// TestHostCorrection feeds endToEndMetrics the same work twice: once on a
// host at nominal speed, once on a host that ran the second half of the
// window twice as slowly — kernel, operations, CPU and all. The corrected
// numbers must be the same.
func TestHostCorrection(t *testing.T) {
	window := func(slowSecondHalf bool) results {
		wk := &worker{}
		for i := 0; i < 8; i++ { // 8 bins = 2 slices
			f := time.Duration(1)
			if slowSecondHalf && i >= 4 {
				f = 2
			}
			// A nominal bin: 48 kernel calls, then 300 operations (100 reads of
			// 1 ms, 100 writes of 3 ms, 100 two-object ones of which one commits).
			b := bin{refCalls: 48, refTime: 48 * refNominal * f, refCPU: 48 * refNominal * f, refMedian: refNominal * f, ops: 300, mallocs: uint64(48*refAllocs) + 300*600}
			b.elapsed = b.refTime + 400*time.Millisecond*f
			b.cpu = b.refTime + 300*time.Millisecond*f
			wk.bins = append(wk.bins, b)
			for j := 0; j < 100; j++ {
				wk.recs = append(wk.recs,
					opRecord{class: opRead, bin: int32(i), latency: time.Millisecond * f},
					opRecord{class: opWrite, bin: int32(i), latency: 3 * time.Millisecond * f},
					opRecord{class: opCross, bin: int32(i), latency: 5 * time.Millisecond * f, failed: j > 0})
			}
		}
		res := &runResult{metrics: results{}, worker: wk}
		endToEndMetrics(res, runConfig{slice: sliceLen}, []float64{0.1})
		return res.metrics
	}
	quiet, noisy := window(false), window(true)
	want := map[string]float64{"throughput_ops_s": 750, "cpu_us_per_op": 1000, "read_p50_ms": 1, "write_p50_ms": 3, "cross_p50_ms": 5}
	for name, w := range want {
		for host, m := range map[string]results{"quiet": quiet, "noisy": noisy} {
			if got := m[name].V; got < w*0.999 || got > w*1.001 {
				t.Errorf("%s host: %s = %v, want %v", host, name, got, w)
			}
		}
	}
	if got := noisy["allocs_per_op"].V; got < 599 || got > 601 {
		t.Errorf("allocs_per_op = %v, want the operations' 600 without the kernel's", got)
	}
}

// TestTracedSpanTree checks the ledger's raw material on the in-memory
// carrier, where server-side calls nest under the client's span.
func TestTracedSpanTree(t *testing.T) {
	wl, _ := workloadByName("replicated")
	res, err := run(smokeConfig(wl, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ops) == 0 {
		t.Fatal("the traced pass recorded no operation")
	}
	nested := 0
	for _, op := range res.ops {
		byID := map[int32]callSpan{}
		for _, sp := range op.spans {
			byID[sp.ID] = sp
		}
		for _, sp := range op.spans {
			from, to := op.Start, op.End
			if sp.Parent != 0 {
				parent, ok := byID[sp.Parent]
				if !ok {
					t.Fatalf("op w%d-%d: span %d names parent %d, which was not recorded", op.Worker, op.Seq, sp.ID, sp.Parent)
				}
				from, to = parent.Start, parent.End
				nested++
			}
			if sp.Start < from || sp.End > to || sp.End < sp.Start {
				t.Fatalf("op w%d-%d: span %d [%d,%d] is not enclosed by its parent [%d,%d]",
					op.Worker, op.Seq, sp.ID, sp.Start, sp.End, from, to)
			}
		}
		var sum time.Duration
		for layer, d := range res.tracer.attribute(op).byService {
			if d < 0 {
				t.Fatalf("op w%d-%d: layer %s has negative time %v", op.Worker, op.Seq, layer, d)
			}
			sum += d
		}
		if span := time.Duration(op.End - op.Start); sum != span {
			t.Fatalf("op w%d-%d: layer times sum to %v, the op span is %v", op.Worker, op.Seq, sum, span)
		}
	}
	if nested == 0 {
		t.Error("no nested span: server-side calls did not inherit the client's context")
	}

	if err := probes(res.metrics); err != nil {
		t.Fatal(err)
	}
	for _, def := range perLayer {
		if _, ok := res.metrics[def.Name]; !ok {
			t.Errorf("per-layer metric %s was not measured", def.Name)
		}
	}
	if len(res.metrics) != len(perLayer) {
		t.Errorf("the traced pass reports %d metrics, the catalogue lists %d", len(res.metrics), len(perLayer))
	}
}

// TestBenchmarkJSONMatchesCatalogue pins BENCHMARK.json to the catalogue
// this program reports from, and both to the contract's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	_ = json.Unmarshal(raw, &keys)
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || time.Duration(doc.RunSeconds)*time.Second%sliceLen != 0 {
		t.Errorf("run_seconds = %d, want a whole number of %v slices within 1..60", doc.RunSeconds, sliceLen)
	}
	if n := len(doc.Workloads); n != len(workloads) || n < 2 || n > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program, limit 2..8", n, len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, wl := range doc.Workloads {
		checkName(wl.Name)
		if wl.Name != workloads[i].Name || wl.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, wl.Name, wl.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(wl.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", wl.Name, len(wl.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool, limit int) {
		if len(got) != len(want) || len(got) < 1 || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue, limit %d", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			w := want[i]
			checkName(g.Name)
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %s: unit %q does not match %v", kind, g.Name, g.Unit, unitRE)
			}
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalogue %s/%s/%s", kind, i, g, w.Name, w.Unit, w.Better)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, g.Name, g.Better)
			}
			switch {
			case bounded && g.Bound == nil:
				t.Errorf("%s %s: no bound", kind, g.Name)
			case bounded && (*g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v, catalogue %v, limit (0, 0.25]", kind, g.Name, *g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true, 16)
	compare("per_layer", doc.PerLayer, perLayer, false, 128)
	if s := doc.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("the set-up metric is %+v, want setup_s in s, lower is better", s)
	}
}
