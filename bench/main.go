// Command bench is the repository's benchmark: six workloads driven
// closed-loop through pkg/arjuna, end-to-end metrics from an untraced pass
// and a per-layer ledger from a traced pass plus layer probes, all measured
// from outside the system. README.md has the tables; BENCHMARK.json at the
// repository root is the contract this program is run under.
//
// Two ways to run it (bench/run.sh builds and execs this program):
//
//	bench/run.sh [-seed N] [-sets N]
//	    every workload, both passes, as tables; with -sets N > 1 the sets
//	    are compared metric by metric against their bounds.
//	bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	    one pass over one workload; the last line of standard output is
//	    the JSON result object the benchmark driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	warmup = 2 * time.Second
	// Full-mode windows. The driver's pass length is BENCHMARK.json's
	// run_seconds.
	fullWindow   = 12 * time.Second
	tracedWarmup = 1 * time.Second
	tracedWindow = 6 * time.Second
	// setups is how many times a pass that reports setup_s sets up.
	setups = 5
)

func main() {
	name := flag.String("workload", "", "run one pass over this workload and end with the driver's JSON line (default: all workloads, both passes)")
	seed := flag.Int64("seed", 1, "the generator's only input; worker i draws from seed+i")
	seconds := flag.Int("seconds", int(fullWindow/time.Second), "measured window of a -workload pass, in seconds")
	trace := flag.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass and probes (per-layer metrics)")
	sets := flag.Int("sets", 1, "without -workload: run this many full sets and compare them against the bounds")
	outDir := flag.String("out", "bench/out", "directory for trace-<workload>.json")
	flag.Parse()

	pinRuntime()
	printEnv(*seed)
	var err error
	if *name != "" {
		err = onePass(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	} else {
		err = fullSets(*seed, *sets, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// printEnv prints what a reader needs to compare two runs.
func printEnv(seed int64) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("env: nproc=%d W=%d go=%s commit=%s seed=%d\n",
		runtime.NumCPU(), workerCount, runtime.Version(), commit, seed)
}

// onePass is the driver's contract: one pass, human-readable rows, then
// one JSON object with exactly correct, attempted, failed and metrics.
func onePass(name string, seed int64, window time.Duration, traced bool, outDir string) error {
	wl, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if window < sliceLen {
		return fmt.Errorf("-seconds %v: need at least one %v slice", window, sliceLen)
	}
	cfg := runConfig{wl: wl, seed: seed, warmup: warmup, window: window, slice: sliceLen, traced: traced, setups: setups, outDir: outDir}
	defs := endToEnd
	if traced {
		cfg.setups = 1
		defs = perLayer
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	if traced {
		if err := probes(res.metrics); err != nil {
			return err
		}
	}
	printRows(wl.Name, defs, res.metrics)
	printHost(wl.Name, res)

	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricJSON{}}
	for _, def := range defs {
		v, ok := res.metrics[def.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", wl.Name, def.Name)
		}
		out.Metrics[def.Name] = metricJSON{v.V, def.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printRows(workload string, defs []metricDef, m results) {
	for _, def := range defs {
		v := m[def.Name]
		samples := ""
		if v.N > 0 {
			samples = fmt.Sprintf("n=%d", v.N)
		}
		fmt.Printf("%-12s %-34s %14.4f %-6s %-10s [%s] %s\n", workload, def.Name, v.V, def.Unit, samples, def.Source, def.What)
	}
}

// printHost says how far from nominal the host ran during the window, which
// is what the end-to-end times were corrected by.
func printHost(workload string, res *runResult) {
	h := hostSlowdown(res.worker)
	fmt.Printf("%-12s host slowdown %.3f (reference kernel / nominal, median of %d bins)\n", workload, h.V, h.N)
}

// fullSets runs every workload's two passes, sets times over, and — with
// more than one set — checks that the sets agree within each end-to-end
// metric's bound.
func fullSets(seed int64, sets int, outDir string) error {
	probed := results{}
	if err := probes(probed); err != nil {
		return err
	}
	// all[workload][metric] = one value per set.
	all := map[string]map[string][]float64{}
	for set := 0; set < sets; set++ {
		for _, wl := range workloads {
			cfg := runConfig{wl: wl, seed: seed, warmup: warmup, window: fullWindow, slice: sliceLen, setups: setups}
			e2e, err := run(cfg)
			if err != nil {
				return err
			}
			if e2e.failed > 0 {
				return fmt.Errorf("%s: %d of %d operations failed", wl.Name, e2e.failed, e2e.attempted)
			}
			fmt.Printf("\n== set %d: %s (%d ops, %d failed) ==\n", set+1, wl.Name, e2e.attempted, e2e.failed)
			printRows(wl.Name, endToEnd, e2e.metrics)
			printHost(wl.Name, e2e)
			if all[wl.Name] == nil {
				all[wl.Name] = map[string][]float64{}
			}
			for _, def := range endToEnd {
				all[wl.Name][def.Name] = append(all[wl.Name][def.Name], e2e.metrics[def.Name].V)
			}
			if set > 0 {
				continue // the ledger is printed once
			}
			cfg.traced, cfg.warmup, cfg.window, cfg.setups, cfg.outDir = true, tracedWarmup, tracedWindow, 1, outDir
			layers, err := run(cfg)
			if err != nil {
				return err
			}
			for k, v := range probed {
				layers.metrics[k] = v
			}
			printRows(wl.Name, perLayer, layers.metrics)
		}
	}
	if sets < 2 {
		return nil
	}
	fmt.Printf("\n== %d sets: value per set, relative spread (max-min)/median, bound ==\n", sets)
	disagree := 0
	for _, wl := range workloads {
		for _, def := range endToEnd {
			vs := all[wl.Name][def.Name]
			sorted := append([]float64(nil), vs...)
			sort.Float64s(sorted)
			spread := ratio(sorted[len(sorted)-1]-sorted[0], median(sorted))
			verdict := "ok"
			if spread > def.Bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Printf("%-12s %-18s %.4g spread=%.3f bound=%.2f %s\n", wl.Name, def.Name, vs, spread, def.Bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d (workload, metric) pairs disagree between sets beyond their bound", disagree)
	}
	return nil
}
