package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// SchemeConfig parameterises the Figure 6/7/8 comparison: a population of
// clients repeatedly binds to one object through the naming and binding
// service under a given scheme; partway through, one server node crashes.
// The measurement is who pays the failure-discovery cost afterwards, and
// what each scheme costs at the database.
type SchemeConfig struct {
	Scheme  core.Scheme
	Servers int
	Stores  int
	Clients int
	// ActionsPerClient is the sequential workload length per client.
	ActionsPerClient int
	// CrashAfter crashes server sv1 after this many total actions
	// (negative: never).
	CrashAfter int
	// Latency is the per-message-leg network latency; probe costs and DB
	// round trips surface in wall time through it.
	Latency time.Duration
	Seed    int64
}

// SchemeResult reports one scheme run.
type SchemeResult struct {
	Config           SchemeConfig
	Committed        int
	Aborted          int
	ProbesBefore     int // broken-binding discoveries before the crash
	ProbesAfter      int // discoveries after the crash — the §4.1.2 cost
	MeanActionMillis float64
	TotalMillis      float64
}

// RunScheme executes the workload round-robin across clients (a
// deterministic serial interleaving; concurrency effects are measured
// separately by RunSchemeContention).
func RunScheme(cfg SchemeConfig) (*SchemeResult, error) {
	if cfg.ActionsPerClient < 1 {
		cfg.ActionsPerClient = 10
	}
	sys, err := arjuna.Open(
		arjuna.WithServers(cfg.Servers), arjuna.WithStores(cfg.Stores), arjuna.WithClients(cfg.Clients),
		arjuna.WithMemNetwork(transport.MemOptions{BaseLatency: cfg.Latency, Seed: cfg.Seed}),
	)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	clients, err := singleAttemptClients(sys, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	obj := sys.Objects()[0]
	res := &SchemeResult{Config: cfg}
	ctx := context.Background()
	total := cfg.Clients * cfg.ActionsPerClient
	crashed := false
	start := time.Now()
	var actionTime time.Duration
	for n := 0; n < total; n++ {
		if !crashed && cfg.CrashAfter >= 0 && n >= cfg.CrashAfter {
			if err := sys.Crash(string(sys.Servers()[0])); err != nil {
				return nil, err
			}
			crashed = true
		}
		t0 := time.Now()
		rep, err := invokeOnce(ctx, clients[n%cfg.Clients], obj, "add", "1")
		actionTime += time.Since(t0)
		if err == nil {
			res.Committed++
		} else {
			res.Aborted++
		}
		if crashed {
			res.ProbesAfter += len(rep.BrokenServers)
		} else {
			res.ProbesBefore += len(rep.BrokenServers)
		}
	}
	res.TotalMillis = float64(time.Since(start)) / float64(time.Millisecond)
	res.MeanActionMillis = float64(actionTime) / float64(time.Millisecond) / float64(total)
	return res, nil
}

// singleAttemptClients returns one client per client node on the given
// scheme, single-copy passive with one activated replica, and with the
// facade's retry loop off (one attempt): the experiments count what ONE
// pass through the paper's protocols costs, so a refused lock or a dead
// server must surface as an aborted action, not be retried away.
func singleAttemptClients(sys *arjuna.System, scheme core.Scheme) ([]*arjuna.Client, error) {
	var out []*arjuna.Client
	for _, name := range sys.ClientNodes() {
		cl, err := sys.Client(string(name), arjuna.ClientScheme(scheme),
			arjuna.ClientPolicy(arjuna.SingleCopyPassive), arjuna.ClientDegree(1), arjuna.ClientRetry(1, 0))
		if err != nil {
			return nil, err
		}
		out = append(out, cl)
	}
	return out, nil
}

// invokeOnce runs one action that invokes method once on the object. The
// report is non-nil whatever the outcome.
func invokeOnce(ctx context.Context, cl *arjuna.Client, id uid.UID, method, args string) (*arjuna.CommitReport, error) {
	return cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(id).Invoke(ctx, method, []byte(args))
		return err
	})
}

// RunE678 compares the three schemes under the same crash workload.
func RunE678(cfg SchemeConfig) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("E6-E8 (Figures 6-8): DB access schemes — %d clients × %d actions, sv1 crashes after %d actions",
			cfg.Clients, cfg.ActionsPerClient, cfg.CrashAfter),
		Header: []string{"scheme", "committed", "aborted", "probes before crash", "probes after crash", "mean action ms"},
	}
	for _, scheme := range []core.Scheme{core.SchemeStandard, core.SchemeIndependent, core.SchemeNestedTopLevel} {
		c := cfg
		c.Scheme = scheme
		r, err := RunScheme(c)
		if err != nil {
			return nil, err
		}
		t.AddRow(scheme.String(), d(r.Committed), d(r.Aborted), d(r.ProbesBefore), d(r.ProbesAfter), f(r.MeanActionMillis))
	}
	t.Notes = append(t.Notes,
		"paper claim (Fig 6): under the standard scheme Sv is static — every client after the crash probes the dead node",
		"paper claim (Fig 7/8): the enhanced schemes repair Sv — only the first client after the crash pays the probe",
		"nested-top-level runs the independent-top-level row's code: without nested actions Figure 8 is Figure 7",
	)
	return t, nil
}

// ContentionResult reports the concurrent-bind comparison.
type ContentionResult struct {
	Scheme      core.Scheme
	Clients     int
	Actions     int
	TotalMillis float64
	Committed   int
	Aborted     int
}

// RunSchemeContention measures the cost side of the trade-off: with no
// failures at all, concurrent clients bind to the same object. The
// standard scheme's GetServer takes shared read locks; the enhanced
// schemes serialize on the Sv entry's write lock (use-list updates).
func RunSchemeContention(scheme core.Scheme, clients, actionsPerClient int, latency time.Duration, seed int64) (*ContentionResult, error) {
	sys, err := arjuna.Open(
		arjuna.WithServers(2), arjuna.WithStores(2), arjuna.WithClients(clients),
		arjuna.WithMemNetwork(transport.MemOptions{BaseLatency: latency, Seed: seed}),
	)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	cls, err := singleAttemptClients(sys, scheme)
	if err != nil {
		return nil, err
	}
	obj := sys.Objects()[0]
	res := &ContentionResult{Scheme: scheme, Clients: clients, Actions: clients * actionsPerClient}
	ctx := context.Background()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		committed int
		aborted   int
	)
	start := time.Now()
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *arjuna.Client) {
			defer wg.Done()
			localCommitted, localAborted := 0, 0
			for n := 0; n < actionsPerClient; n++ {
				// All clients run read-only actions against the SAME
				// object: object-level read locks share, so any
				// serialization comes from the database — shared read
				// locks (standard) vs write-locked use-list updates
				// (enhanced).
				if _, err := invokeOnce(ctx, cl, obj, "get", ""); err == nil {
					localCommitted++
				} else {
					localAborted++
				}
			}
			mu.Lock()
			committed += localCommitted
			aborted += localAborted
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	res.TotalMillis = float64(time.Since(start)) / float64(time.Millisecond)
	res.Committed = committed
	res.Aborted = aborted
	return res, nil
}

// RunE678Contention builds the contention comparison table.
func RunE678Contention(clients, actionsPerClient int, latency time.Duration, seed int64) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("E6-E8 ablation: failure-free bind cost, %d concurrent clients × %d actions (latency %v)",
			clients, actionsPerClient, latency),
		Header: []string{"scheme", "committed", "aborted", "total ms", "ms/action"},
	}
	for _, scheme := range []core.Scheme{core.SchemeStandard, core.SchemeIndependent, core.SchemeNestedTopLevel} {
		r, err := RunSchemeContention(scheme, clients, actionsPerClient, latency, seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(scheme.String(), d(r.Committed), d(r.Aborted), f(r.TotalMillis), f(r.TotalMillis/float64(r.Actions)))
	}
	t.Notes = append(t.Notes,
		"paper claim: the standard scheme avoids write locks on the database (GetServer is a shared read);",
		"the enhanced schemes pay Increment/Decrement write-lock actions per bind — 'a situation which we are trying to avoid' (§4.1.2)",
		"nested-top-level runs the independent-top-level row's code: without nested actions Figure 8 is Figure 7",
	)
	return t, nil
}
