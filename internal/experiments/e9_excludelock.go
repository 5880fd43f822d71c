package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/replica"
)

// E9Config parameterises the §4.2.1 lock-type experiment: R concurrent
// readers hold read locks on an object's St entry while a writer commits
// with a failed store, forcing an Exclude. With the paper's exclude-write
// lock the promotion shares with the readers; with the plain write-lock
// baseline it is refused and the writer's action aborts.
type E9Config struct {
	Readers int
	Trials  int
	Seed    int64
}

// E9Result reports abort rates for both lock types.
type E9Result struct {
	Config              E9Config
	ExcludeWriteAborts  int
	WriteLockAborts     int
	ExcludeWriteCommits int
	WriteLockCommits    int
}

// RunE9 executes the experiment.
func RunE9(cfg E9Config) (*E9Result, error) {
	if cfg.Trials < 1 {
		cfg.Trials = 20
	}
	res := &E9Result{Config: cfg}
	for trial := 0; trial < cfg.Trials; trial++ {
		for _, useWriteLock := range []bool{false, true} {
			committed, err := runE9Trial(cfg.Readers, useWriteLock)
			if err != nil {
				return nil, fmt.Errorf("e9 trial %d (writeLock=%v): %w", trial, useWriteLock, err)
			}
			switch {
			case useWriteLock && committed:
				res.WriteLockCommits++
			case useWriteLock && !committed:
				res.WriteLockAborts++
			case !useWriteLock && committed:
				res.ExcludeWriteCommits++
			default:
				res.ExcludeWriteAborts++
			}
		}
	}
	return res, nil
}

func runE9Trial(readers int, useWriteLock bool) (bool, error) {
	w, err := harness.New(harness.Options{
		Servers: 1,
		Stores:  2,
		Clients: readers + 1,
	})
	if err != nil {
		return false, err
	}
	ctx := context.Background()

	// Readers bind under the standard scheme, holding St read locks until
	// their actions end.
	type openAction struct {
		act interface{ Abort(context.Context) error }
	}
	var open []openAction
	for i := 0; i < readers; i++ {
		client := w.Clients[i+1]
		b := w.Binder(client, core.SchemeStandard, replica.SingleCopyPassive, 0)
		act := b.Actions.BeginTop()
		if _, err := b.Bind(ctx, act, w.Objects[0]); err != nil {
			return false, err
		}
		open = append(open, openAction{act: act})
	}
	defer func() {
		for _, o := range open {
			_ = o.act.Abort(ctx)
		}
	}()

	// The writer modifies the object; st2 dies before commit, forcing an
	// Exclude during commit processing.
	b := w.Binder(w.Clients[0], core.SchemeStandard, replica.SingleCopyPassive, 0)
	b.UseWriteLockForExclude = useWriteLock
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.Objects[0])
	if err != nil {
		return false, err
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		_ = act.Abort(ctx)
		return false, err
	}
	w.Cluster.Node("st2").Crash()
	if _, err := act.Commit(ctx); err != nil {
		return false, nil // aborted — the measured outcome, not an error
	}
	return true, nil
}

// Table renders the result.
func (r *E9Result) Table() *Table {
	t := &Table{
		Title:  "E9 (§4.2.1): commit-time Exclude under concurrent readers — exclude-write lock vs read→write promotion",
		Header: []string{"readers", "trials", "exclude-write commits", "exclude-write aborts", "write-lock commits", "write-lock aborts"},
	}
	t.AddRow(d(r.Config.Readers), d(r.Config.Trials),
		d(r.ExcludeWriteCommits), d(r.ExcludeWriteAborts),
		d(r.WriteLockCommits), d(r.WriteLockAborts))
	t.Notes = append(t.Notes,
		"paper claim: with several read locks held, a read→write promotion request is refused and the client action must abort;",
		"the exclude-write lock type 'can be shared with read locks', so commit processing succeeds",
	)
	return t
}

// RunE9Sweep builds the abort-rate table across reader counts.
func RunE9Sweep(readerCounts []int, trials int, seed int64) (*Table, error) {
	t := &Table{
		Title:  "E9 (§4.2.1): Exclude abort rate vs concurrent reader count",
		Header: []string{"readers", "exclude-write abort rate", "write-lock abort rate"},
	}
	for _, rc := range readerCounts {
		r, err := RunE9(E9Config{Readers: rc, Trials: trials, Seed: seed})
		if err != nil {
			return nil, err
		}
		ewTotal := r.ExcludeWriteAborts + r.ExcludeWriteCommits
		wlTotal := r.WriteLockAborts + r.WriteLockCommits
		t.AddRow(d(rc),
			f(float64(r.ExcludeWriteAborts)/float64(max(1, ewTotal))),
			f(float64(r.WriteLockAborts)/float64(max(1, wlTotal))))
	}
	t.Notes = append(t.Notes, "shape: write-lock aborts jump to 1.0 as soon as any reader is present; exclude-write stays at 0")
	return t, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
