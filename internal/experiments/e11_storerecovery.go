package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/pkg/arjuna"
)

// E11Config parameterises the §4.2 store crash-and-recovery experiment:
// actions run against an object whose state lives on k stores; one store
// crashes (and is excluded at the next commit), actions continue with the
// reduced view, then the store recovers — catching up under an atomic
// action and Including itself back.
type E11Config struct {
	Stores int
	// ActionsBefore/During/After size the three phases.
	ActionsBefore int
	ActionsDuring int
	ActionsAfter  int
	Seed          int64
}

// E11Result traces the St view through the three phases.
type E11Result struct {
	Config        E11Config
	ViewBefore    int
	ViewDuring    int
	ViewAfter     int
	Committed     int
	Aborted       int
	CaughtUp      bool // recovered store holds the latest version
	FinalConsist  bool // all stores in the final view agree
	RecoveredSeq  uint64
	ExpectedValue int
}

// RunE11 executes the experiment.
func RunE11(cfg E11Config) (*E11Result, error) {
	if cfg.Stores < 2 {
		cfg.Stores = 2
	}
	if cfg.ActionsBefore < 1 {
		cfg.ActionsBefore = 3
	}
	if cfg.ActionsDuring < 1 {
		cfg.ActionsDuring = 3
	}
	if cfg.ActionsAfter < 1 {
		cfg.ActionsAfter = 3
	}
	sys, err := arjuna.Open(arjuna.WithServers(1), arjuna.WithStores(cfg.Stores))
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	w := sys.World()
	clients, err := singleAttemptClients(sys, core.SchemeStandard)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	res := &E11Result{Config: cfg}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := invokeOnce(ctx, clients[0], w.Objects[0], "add", "1"); err == nil {
				res.Committed++
				res.ExpectedValue++
			} else {
				res.Aborted++
			}
		}
	}

	run(cfg.ActionsBefore)
	view, err := sys.StoreView(ctx, w.Objects[0])
	if err != nil {
		return nil, err
	}
	res.ViewBefore = len(view)

	victim := w.Cluster.Node(w.Sts[len(w.Sts)-1])
	victim.Crash()
	run(cfg.ActionsDuring) // the first commit here excludes the victim
	view, err = sys.StoreView(ctx, w.Objects[0])
	if err != nil {
		return nil, err
	}
	res.ViewDuring = len(view)

	// Recovery: refresh states under an action, then Include (§4.2).
	victim.Recover(nil)
	if err := core.RecoverStoreNode(ctx, victim, "db", w.Objects); err != nil {
		return nil, fmt.Errorf("e11 store recovery: %w", err)
	}
	view, err = sys.StoreView(ctx, w.Objects[0])
	if err != nil {
		return nil, err
	}
	if seq, ok := victim.Store().SeqOf(w.Objects[0]); ok {
		res.RecoveredSeq = seq
	}
	// Caught up means the recovered store matches the current maximum.
	maxSeq := uint64(0)
	for _, s := range w.StoreSeqs(0) {
		if s > maxSeq {
			maxSeq = s
		}
	}
	res.CaughtUp = res.RecoveredSeq == maxSeq

	run(cfg.ActionsAfter)
	view, err = sys.StoreView(ctx, w.Objects[0])
	if err != nil {
		return nil, err
	}
	res.ViewAfter = len(view)

	// Final consistency across the view.
	res.FinalConsist = true
	var ref uint64
	first := true
	seqs := w.StoreSeqs(0)
	for _, st := range view {
		s, ok := seqs[st]
		if !ok {
			res.FinalConsist = false
			break
		}
		if first {
			ref, first = s, false
		} else if s != ref {
			res.FinalConsist = false
		}
	}
	return res, nil
}

// Table renders the result.
func (r *E11Result) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("E11 (§4.2): store crash, Exclude window, catch-up and Include — %d stores", r.Config.Stores),
		Header: []string{"phase", "|St| view", "actions committed"},
	}
	t.AddRow("before crash", d(r.ViewBefore), d(r.Config.ActionsBefore))
	t.AddRow("during outage", d(r.ViewDuring), d(r.Config.ActionsDuring))
	t.AddRow("after recovery", d(r.ViewAfter), d(r.Config.ActionsAfter))
	t.Notes = append(t.Notes,
		fmt.Sprintf("caught up at recovery: %v (recovered seq %d); final view mutually consistent: %v; total committed %d, aborted %d",
			r.CaughtUp, r.RecoveredSeq, r.FinalConsist, r.Committed, r.Aborted),
		"paper claim: a crashed store node must update its object states and invoke Include before becoming available again",
	)
	return t
}
