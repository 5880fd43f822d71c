package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/placement"
	"repro/internal/replica"
	"repro/pkg/arjuna"
)

// AvailConfig parameterises one availability measurement for a replica
// configuration of §3.2 (Figures 2–5): |Sv| server nodes, |St| store
// nodes, a replication policy, and a per-node crash probability applied
// independently before each trial action. With CrashDuring set, one bound
// server is additionally crashed between the action's two invocations
// (the §3.2(3) masking scenario).
type AvailConfig struct {
	Servers     int
	Stores      int
	Policy      replica.Policy
	CrashProb   float64
	CrashDuring bool
	Trials      int
	Seed        int64
}

// AvailResult reports availability for one configuration.
type AvailResult struct {
	Config    AvailConfig
	Committed int
	Aborted   int
	// InconsistentStores counts trials after which two surviving stores
	// disagreed on the committed version — must stay zero.
	InconsistentStores int
}

// Availability returns the committed fraction.
func (r *AvailResult) Availability() float64 {
	total := r.Committed + r.Aborted
	if total == 0 {
		return 0
	}
	return float64(r.Committed) / float64(total)
}

// RunAvailability executes the experiment: each trial builds a fresh
// deployment, applies the crash sample, and runs one read-modify-write
// action through the naming and binding service.
func RunAvailability(cfg AvailConfig) (*AvailResult, error) {
	if cfg.Trials < 1 {
		cfg.Trials = 100
	}
	rng := newRand(cfg.Seed)
	res := &AvailResult{Config: cfg}
	ctx := context.Background()
	for trial := 0; trial < cfg.Trials; trial++ {
		sys, err := arjuna.Open(arjuna.WithServers(cfg.Servers), arjuna.WithStores(cfg.Stores))
		if err != nil {
			return nil, fmt.Errorf("availability trial %d: %w", trial, err)
		}
		w := sys.World()
		// Independent crash sample over servers and stores.
		for _, sv := range w.Svs {
			if rng.Float64() < cfg.CrashProb {
				w.Cluster.Node(sv).Crash()
			}
		}
		for _, st := range w.Sts {
			if rng.Float64() < cfg.CrashProb {
				w.Cluster.Node(st).Crash()
			}
		}
		b := w.Binder("c1", core.SchemeStandard, cfg.Policy, 0)
		committed := runAvailAction(ctx, w, b, cfg.CrashDuring, rng)
		if committed {
			res.Committed++
		} else {
			res.Aborted++
		}
		if !storesConsistent(sys) {
			res.InconsistentStores++
		}
		_ = sys.Close() // in-memory deployment: nothing to flush
	}
	return res, nil
}

// runAvailAction runs bind → add → (optional mid-action crash) → add →
// commit and reports whether the action committed.
func runAvailAction(ctx context.Context, w *harness.World, b *placement.Binder, crashDuring bool, rng interface{ Intn(int) int }) bool {
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.Objects[0])
	if err != nil {
		_ = act.Abort(ctx)
		return false
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		_ = act.Abort(ctx)
		return false
	}
	if crashDuring {
		bound := bd.Servers()
		if len(bound) > 0 {
			victim := bound[rng.Intn(len(bound))]
			w.Cluster.Node(victim).Crash()
		}
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		_ = act.Abort(ctx)
		return false
	}
	if _, err := act.Commit(ctx); err != nil {
		return false
	}
	return true
}

// storesConsistent verifies the St invariant: every store still listed in
// the St view holds the same committed version.
func storesConsistent(sys *arjuna.System) bool {
	w := sys.World()
	view, err := sys.StoreView(context.Background(), w.Objects[0])
	if err != nil {
		// DB unreachable (it never crashes in these experiments) — treat
		// as consistent-unknown.
		return true
	}
	var seq uint64
	first := true
	for _, st := range view {
		n := w.Cluster.Node(st)
		if !n.Up() {
			continue
		}
		s, ok := n.Store().SeqOf(w.Objects[0])
		if !ok {
			return false
		}
		if first {
			seq, first = s, false
		} else if s != seq {
			return false
		}
	}
	return true
}

// RunE2 is Figure 2: |Sv|=|St|=1, sweeping crash probability.
func RunE2(trials int, seed int64, probs []float64) (*Table, error) {
	t := &Table{
		Title:  "E2 (Figure 2): |Sv|=|St|=1 unreplicated baseline — availability vs crash probability",
		Header: []string{"p(crash)", "committed", "aborted", "availability", "inconsistent"},
	}
	for _, p := range probs {
		r, err := RunAvailability(AvailConfig{
			Servers: 1, Stores: 1, Policy: replica.SingleCopyPassive,
			CrashProb: p, Trials: trials, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(f(p), d(r.Committed), d(r.Aborted), f(r.Availability()), d(r.InconsistentStores))
	}
	t.Notes = append(t.Notes, "paper claim: the action aborts if either the server node or the store node is down")
	return t, nil
}

// RunE3 is Figure 3: |Sv|=1, |St|=k single-copy passive replication.
func RunE3(trials int, seed int64, p float64, ks []int) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("E3 (Figure 3): |Sv|=1, |St|=k state replication at p=%.2f — availability vs k", p),
		Header: []string{"k stores", "committed", "aborted", "availability", "inconsistent"},
	}
	for _, k := range ks {
		r, err := RunAvailability(AvailConfig{
			Servers: 1, Stores: k, Policy: replica.SingleCopyPassive,
			CrashProb: p, Trials: trials, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(d(k), d(r.Committed), d(r.Aborted), f(r.Availability()), d(r.InconsistentStores))
	}
	t.Notes = append(t.Notes, "paper claim: abort only if the server or ALL k stores are down; failed stores are excluded from St")
	return t, nil
}

// RunE4 is Figure 4: |Sv|=k, |St|=1 active replication with a mid-action
// server crash — up to k−1 failures are masked.
func RunE4(trials int, seed int64, p float64, ks []int) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("E4 (Figure 4): |Sv|=k, |St|=1 active replication, one server crashed mid-action, p=%.2f", p),
		Header: []string{"k servers", "committed", "aborted", "availability", "inconsistent"},
	}
	for _, k := range ks {
		r, err := RunAvailability(AvailConfig{
			Servers: k, Stores: 1, Policy: replica.Active,
			CrashProb: p, CrashDuring: true, Trials: trials, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(d(k), d(r.Committed), d(r.Aborted), f(r.Availability()), d(r.InconsistentStores))
	}
	t.Notes = append(t.Notes, "paper claim: k>1 activated copies mask up to k-1 server replica failures during execution")
	return t, nil
}

// RunE5 is Figure 5: the general |Sv|=m, |St|=n configuration surface.
func RunE5(trials int, seed int64, p float64, ms, ns []int) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("E5 (Figure 5): general |Sv|=m, |St|=n, active replication, p=%.2f", p),
		Header: []string{"m servers", "n stores", "committed", "aborted", "availability", "inconsistent"},
	}
	for _, m := range ms {
		for _, n := range ns {
			r, err := RunAvailability(AvailConfig{
				Servers: m, Stores: n, Policy: replica.Active,
				CrashProb: p, Trials: trials, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(d(m), d(n), d(r.Committed), d(r.Aborted), f(r.Availability()), d(r.InconsistentStores))
		}
	}
	t.Notes = append(t.Notes, "paper claim: the general case subsumes Figures 2-4 and offers maximum activation flexibility")
	return t, nil
}
