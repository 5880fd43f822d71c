package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/replica"
	"repro/pkg/arjuna"
)

// E12Config parameterises the §5 (concluding remarks) extension
// experiment: the available-server data Sv lives in a traditional
// non-atomic name server; only the Object State database retains atomic
// action support. The paper conjectures that the State database alone can
// then guarantee consistent binding. The experiment runs a crash/recovery
// churn under both designs and checks (a) the mutual-consistency invariant
// of stores in St, and (b) what is lost: the quiescence check on Insert.
type E12Config struct {
	Servers int
	Stores  int
	Actions int
	// CrashEvery crashes and recovers a server node every N actions.
	CrashEvery int
	Seed       int64
}

// E12Result reports both designs.
type E12Result struct {
	Config E12Config
	// Atomic / NonAtomic variants.
	AtomicCommitted     int
	AtomicAborted       int
	AtomicConsistent    bool
	NonAtomicCommitted  int
	NonAtomicAborted    int
	NonAtomicConsistent bool
	// UnsafeInsertAllowed reports whether the non-atomic name server
	// accepted an Insert while the object was in use (the atomic database
	// refuses it) — the protection that is lost.
	UnsafeInsertAllowed bool
}

// RunE12 executes the experiment.
func RunE12(cfg E12Config) (*E12Result, error) {
	if cfg.Actions < 1 {
		cfg.Actions = 20
	}
	if cfg.CrashEvery < 1 {
		cfg.CrashEvery = 5
	}
	res := &E12Result{Config: cfg}
	for _, nonAtomic := range []bool{false, true} {
		committed, aborted, consistent, err := runE12Churn(cfg, nonAtomic)
		if err != nil {
			return nil, err
		}
		if nonAtomic {
			res.NonAtomicCommitted = committed
			res.NonAtomicAborted = aborted
			res.NonAtomicConsistent = consistent
		} else {
			res.AtomicCommitted = committed
			res.AtomicAborted = aborted
			res.AtomicConsistent = consistent
		}
	}
	unsafe, err := runE12QuiescenceProbe()
	if err != nil {
		return nil, err
	}
	res.UnsafeInsertAllowed = unsafe
	return res, nil
}

func runE12Churn(cfg E12Config, nonAtomic bool) (committed, aborted int, consistent bool, err error) {
	sys, err := arjuna.Open(arjuna.WithServers(cfg.Servers), arjuna.WithStores(cfg.Stores))
	if err != nil {
		return 0, 0, false, err
	}
	defer sys.Close()
	w := sys.World()
	ctx := context.Background()
	var ns *core.NSClient
	if nonAtomic {
		server := core.NewNameServer(w.Cluster.Node("db"))
		for _, id := range w.Objects {
			server.Set(id, w.Svs)
		}
		// Binders built from here on read Sv from the name server.
		w.NameServer = "db"
		ns = &core.NSClient{RPC: w.Cluster.Node("c1").Client(), Node: "db"}
	}
	clients, err := singleAttemptClients(sys, core.SchemeStandard)
	if err != nil {
		return 0, 0, false, err
	}

	crashedIdx := -1
	for n := 0; n < cfg.Actions; n++ {
		if n%cfg.CrashEvery == cfg.CrashEvery-1 {
			// Recover the previous victim, crash the next server.
			if crashedIdx >= 0 {
				node := w.Cluster.Node(w.Svs[crashedIdx])
				node.Recover(nil)
				if nonAtomic {
					// Non-atomic re-insert: immediate, no quiescence.
					_ = ns.Insert(ctx, w.Objects[0], node.Name())
				} else {
					if err := core.RecoverServerNode(ctx, node, "db", w.Objects); err != nil {
						return 0, 0, false, err
					}
				}
			}
			crashedIdx = (crashedIdx + 1) % len(w.Svs)
			w.Cluster.Node(w.Svs[crashedIdx]).Crash()
		}
		if _, err := invokeOnce(ctx, clients[0], w.Objects[0], "add", "1"); err == nil {
			committed++
		} else {
			aborted++
		}
	}
	// Invariant: every store in the final St view holds the same version.
	view, err := sys.StoreView(ctx, w.Objects[0])
	if err != nil {
		return 0, 0, false, err
	}
	seqs := w.StoreSeqs(0)
	consistent = true
	var ref uint64
	first := true
	for _, st := range view {
		s, ok := seqs[st]
		if !ok {
			consistent = false
			break
		}
		if first {
			ref, first = s, false
		} else if s != ref {
			consistent = false
		}
	}
	return committed, aborted, consistent, nil
}

// runE12QuiescenceProbe shows the lost protection: with the object in use,
// the atomic database refuses an Insert (write lock) while the non-atomic
// name server accepts it immediately.
func runE12QuiescenceProbe() (unsafeAllowed bool, err error) {
	w, err := harness.New(harness.Options{Servers: 2, Stores: 1, Clients: 1})
	if err != nil {
		return false, err
	}
	ctx := context.Background()
	ns := core.NewNameServer(w.Cluster.Node("db"))
	ns.Set(w.Objects[0], w.Svs)
	nsc := core.NSClient{RPC: w.Cluster.Node("c1").Client(), Node: "db"}

	// A client binds and stays active (read lock held at the DB).
	b := w.Binder("c1", core.SchemeStandard, replica.SingleCopyPassive, 1)
	act := b.Actions.BeginTop()
	if _, err := b.Bind(ctx, act, w.Objects[0]); err != nil {
		return false, err
	}
	defer func() { _ = act.Abort(ctx) }()

	// Non-atomic Insert: no lock protocol — succeeds while in use.
	if err := nsc.Insert(ctx, w.Objects[0], "sv-new"); err != nil {
		return false, nil
	}
	return true, nil
}

// Table renders the result.
func (r *E12Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("E12 (§5): non-atomic name server for Sv + atomic Object State DB — %d actions, crash every %d",
			r.Config.Actions, r.Config.CrashEvery),
		Header: []string{"design", "committed", "aborted", "St mutually consistent"},
	}
	t.AddRow("atomic Sv (paper §4)", d(r.AtomicCommitted), d(r.AtomicAborted), fmt.Sprintf("%v", r.AtomicConsistent))
	t.AddRow("non-atomic Sv (§5 ext.)", d(r.NonAtomicCommitted), d(r.NonAtomicAborted), fmt.Sprintf("%v", r.NonAtomicConsistent))
	t.Notes = append(t.Notes,
		fmt.Sprintf("insert-while-in-use accepted by non-atomic name server: %v (atomic DB refuses — quiescence check lost)", r.UnsafeInsertAllowed),
		"paper conjecture: the Object State database alone can guarantee consistent binding of clients to servers",
	)
	return t
}
