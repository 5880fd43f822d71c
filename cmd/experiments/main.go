// Command experiments regenerates every figure of the paper as a text
// table (the paper has no measurement tables — its figures are protocol
// diagrams, reproduced here as executable scenarios; README's "What the
// paper contributes" section maps the paper onto the code).
//
// Usage:
//
//	experiments [-quick] [-only E1,E9] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced trial counts (CI-sized run)")
	only := fs.String("only", "", "comma-separated experiment ids to run (e.g. E1,E9); empty = all")
	seed := fs.Int64("seed", 42, "PRNG seed for crash sampling")
	list := fs.Bool("list", false, "print the experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	trials := 200
	clients := 8
	actions := 10
	latency := 200 * time.Microsecond
	if *quick {
		trials = 30
		clients = 4
		actions = 4
		latency = 50 * time.Microsecond
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	type job struct {
		id  string
		run func() (*experiments.Table, error)
	}
	jobs := []job{
		{"E1", func() (*experiments.Table, error) {
			r, err := experiments.RunE1(experiments.E1Config{Replicas: 3, Trials: 30, Seed: *seed})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"E2", func() (*experiments.Table, error) {
			return experiments.RunE2(trials, *seed, []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5})
		}},
		{"E3", func() (*experiments.Table, error) {
			return experiments.RunE3(trials, *seed, 0.3, []int{1, 2, 3, 4, 5})
		}},
		{"E4", func() (*experiments.Table, error) {
			return experiments.RunE4(trials/2, *seed, 0, []int{1, 2, 3, 4, 5})
		}},
		{"E5", func() (*experiments.Table, error) {
			return experiments.RunE5(trials/2, *seed, 0.3, []int{1, 2, 3}, []int{1, 2, 3})
		}},
		{"E6", func() (*experiments.Table, error) {
			return experiments.RunE678(experiments.SchemeConfig{
				Servers: 2, Stores: 2, Clients: clients,
				ActionsPerClient: actions, CrashAfter: clients, Latency: latency, Seed: *seed,
			})
		}},
		{"E7", func() (*experiments.Table, error) {
			return experiments.RunE678Contention(clients, actions, latency, *seed)
		}},
		{"E9", func() (*experiments.Table, error) {
			return experiments.RunE9Sweep([]int{0, 1, 2, 4, 8}, 10, *seed)
		}},
		{"E10", func() (*experiments.Table, error) {
			r, err := experiments.RunE10(experiments.E10Config{
				Servers: 4, Readers: clients, ReadsPerClient: actions, Latency: latency, Seed: *seed,
			})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"E11", func() (*experiments.Table, error) {
			r, err := experiments.RunE11(experiments.E11Config{
				Stores: 3, ActionsBefore: 5, ActionsDuring: 5, ActionsAfter: 5, Seed: *seed,
			})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"E12", func() (*experiments.Table, error) {
			r, err := experiments.RunE12(experiments.E12Config{
				Servers: 3, Stores: 2, Actions: 30, CrashEvery: 6, Seed: *seed,
			})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"A1", func() (*experiments.Table, error) {
			return experiments.RunJanitorAblation(100 * time.Millisecond)
		}},
		{"A2", func() (*experiments.Table, error) {
			return experiments.RunMulticastCost([]int{2, 3, 5, 8}, 50, latency)
		}},
	}

	if *list {
		for _, j := range jobs {
			fmt.Println(j.id)
			if j.id == "E7" {
				// E8 is selectable (-only E8) but runs inside the E6 table.
				fmt.Println("E8")
			}
		}
		return nil
	}

	// E8 (nested top-level) is a row of the E6 table, and it runs the
	// independent row's code; keep the id addressable anyway.
	ran := 0
	for _, j := range jobs {
		if !want(j.id) && !(j.id == "E6" && (want("E8") || want("E6"))) {
			continue
		}
		start := time.Now()
		t, err := j.run()
		if err != nil {
			return fmt.Errorf("%s: %w", j.id, err)
		}
		fmt.Println(t.String())
		fmt.Printf("(%s completed in %v)\n\n", j.id, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched -only=%q", *only)
	}
	return nil
}
