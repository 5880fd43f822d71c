package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// E10Config parameterises the §4.1.2 read-optimisation experiment:
// read-only clients either go through the full enhanced-scheme binding
// (write-locked use-list updates at the database) or use the optimisation
// — no use lists, shared read locks only. Under single-copy passive, which
// this experiment runs, the optimised clients bind where the writers' copy
// is (one server); the spread over Sv is active replication's.
type E10Config struct {
	Servers int
	Readers int
	// ReadsPerClient is each reader's sequential workload.
	ReadsPerClient int
	Latency        time.Duration
	Seed           int64
}

// E10Result reports both variants.
type E10Result struct {
	Config              E10Config
	OptimisedMillis     float64
	FullBindMillis      float64
	OptimisedCommitted  int
	FullBindCommitted   int
	OptimisedAborted    int
	FullBindAborted     int
	DistinctServersUsed int
	// OptimisedDBMsgs and FullBindDBMsgs are the messages a reader sent the
	// database per committed read; RunE10 fails unless every committed read
	// sent exactly 1 in both.
	OptimisedDBMsgs int
	FullBindDBMsgs  int
}

// RunE10 executes the experiment.
func RunE10(cfg E10Config) (*E10Result, error) {
	if cfg.ReadsPerClient < 1 {
		cfg.ReadsPerClient = 10
	}
	res := &E10Result{Config: cfg}
	for _, readOnly := range []bool{true, false} {
		w, err := harness.New(harness.Options{
			Servers: cfg.Servers,
			Stores:  1,
			Clients: cfg.Readers,
			Net:     transport.MemOptions{BaseLatency: cfg.Latency, Seed: cfg.Seed},
		})
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		// What one committed read costs at the database, exactly: one
		// message. The optimised reader's bind is the whole conversation (its
		// St read joins the bind action, nothing is left to end); the full
		// binding's action-end, which releases the St lock and drops the use
		// count, rides the head of the reader's next bind, and that bind
		// (the previous read's end, then this read's bind) is this read's
		// one message.
		const wantMsgs = 1
		// Each reader is sequential, so the messages it sends the database
		// between an action's begin and its commit are that action's — all
		// but one that carries nothing but ends: the previous read's end,
		// sent alone because the bound passed before this read's bind.
		dbMsgs := make(map[transport.Addr]*atomic.Int64, len(w.Clients))
		for _, c := range w.Clients {
			dbMsgs[c] = new(atomic.Int64)
		}
		w.Cluster.Faults().OnRequest(-1,
			func(req transport.Request) bool { return req.Service == core.ServiceName && dbMsgs[req.From] != nil },
			func(req transport.Request) {
				var q core.BatchReq
				if rpc.Decode(req.Payload, &q) != nil || slices.ContainsFunc(q.Ops, func(op core.Op) bool {
					return op.Kind != core.OpEndAction && op.Kind != core.OpDecrement
				}) {
					dbMsgs[req.From].Add(1)
				}
			})
		var (
			wg        sync.WaitGroup
			mu        sync.Mutex
			committed int
			aborted   int
			miscount  error
			servers   = make(map[transport.Addr]bool)
		)
		start := time.Now()
		for _, c := range w.Clients {
			wg.Add(1)
			go func(client transport.Addr) {
				defer wg.Done()
				b := w.Binder(client, core.SchemeIndependent, replica.SingleCopyPassive, 1)
				b.ReadOnly = readOnly
				for n := 0; n < cfg.ReadsPerClient; n++ {
					before := dbMsgs[client].Load()
					act := b.Actions.BeginTop()
					bd, err := b.Bind(ctx, act, w.Objects[0])
					if err != nil {
						_ = act.Abort(ctx)
						mu.Lock()
						aborted++
						mu.Unlock()
						continue
					}
					_, invErr := bd.Invoke(ctx, replica.Call{Method: "get"})
					if invErr != nil {
						_ = act.Abort(ctx)
						mu.Lock()
						aborted++
						mu.Unlock()
						continue
					}
					if _, err := act.Commit(ctx); err != nil {
						mu.Lock()
						aborted++
						mu.Unlock()
						continue
					}
					sent := int(dbMsgs[client].Load() - before)
					mu.Lock()
					committed++
					if sent != wantMsgs && miscount == nil {
						miscount = fmt.Errorf("e10: a committed read (readOnly=%v) sent the database %d messages, want exactly %d", readOnly, sent, wantMsgs)
					}
					for _, sv := range bd.Servers() {
						servers[sv] = true
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		elapsed := float64(time.Since(start)) / float64(time.Millisecond)
		if miscount != nil {
			return nil, miscount
		}
		if readOnly {
			res.OptimisedDBMsgs = wantMsgs
			res.OptimisedMillis = elapsed
			res.OptimisedCommitted = committed
			res.OptimisedAborted = aborted
			res.DistinctServersUsed = len(servers)
		} else {
			res.FullBindDBMsgs = wantMsgs
			res.FullBindMillis = elapsed
			res.FullBindCommitted = committed
			res.FullBindAborted = aborted
		}
	}
	return res, nil
}

// Table renders the result.
func (r *E10Result) Table() *Table {
	total := r.Config.Readers * r.Config.ReadsPerClient
	t := &Table{
		Title: fmt.Sprintf("E10 (§4.1.2): read-only optimisation — %d readers × %d reads, %d servers (latency %v)",
			r.Config.Readers, r.Config.ReadsPerClient, r.Config.Servers, r.Config.Latency),
		Header: []string{"variant", "committed", "aborted", "db msgs/read", "total ms", "ms/read", "distinct servers"},
	}
	t.AddRow("read-optimised", d(r.OptimisedCommitted), d(r.OptimisedAborted), d(r.OptimisedDBMsgs),
		f(r.OptimisedMillis), f(r.OptimisedMillis/float64(total)), d(r.DistinctServersUsed))
	t.AddRow("full bind", d(r.FullBindCommitted), d(r.FullBindAborted), d(r.FullBindDBMsgs),
		f(r.FullBindMillis), f(r.FullBindMillis/float64(total)), "-")
	t.Notes = append(t.Notes,
		"paper claim: read-only clients skip use-list updates, avoiding the database write locks entirely, and may bind to any",
		"convenient server — here only under active replication, whose total order keeps every replica current; under single-copy",
		"passive (this run) they bind to the one copy the writers keep current, so distinct servers = 1",
		"db msgs/read is asserted, not measured: every committed read sent the database exactly that many messages — the optimised",
		"reader's one-object action leaves no lock there, so its bind is the whole conversation; the full binding's action-end (its use-list",
		"Decrement and the St lock's release) rides the reader's next bind: ops at the database, not a message",
	)
	return t
}
