package core

import (
	"context"
	"sort"

	"repro/internal/sim"
	"repro/internal/transport"
)

// Janitor implements the failure-detection and cleanup protocol sketched
// in §4.1.3: "the Object Server database could periodically check if its
// clients are functioning, and if necessary update use list if crashes are
// detected."
//
// A crashed client cannot run its Decrement action or end its database
// actions, so its use-list counters and locks would otherwise leak,
// blocking Insert (quiescence) forever. The janitor pings every client
// node known to the database; for dead clients it aborts their in-flight
// named database actions (restoring entry pre-images, releasing locks) and
// zeroes their use-list counters. A message's own action is not the
// janitor's to end: it ends with its message, whose handler runs on.
type Janitor struct {
	db *DB
}

// NewJanitor returns a janitor for db. Run Sweep periodically (the
// experiments invoke it explicitly for determinism).
func NewJanitor(db *DB) *Janitor { return &Janitor{db: db} }

// SweepReport summarises one sweep.
type SweepReport struct {
	// DeadClients lists client nodes found crashed, sorted.
	DeadClients []transport.Addr
	// AbortedActions counts in-flight database actions rolled back.
	AbortedActions int
	// ClearedCounters counts use-list entries zeroed.
	ClearedCounters int
}

// Sweep probes clients and cleans up after dead ones.
func (j *Janitor) Sweep(ctx context.Context) SweepReport {
	db := j.db
	cli := db.node.Client()

	// Collect every client node referenced by in-flight actions or use
	// lists.
	db.mu.Lock()
	candidates := make(map[transport.Addr]bool)
	for _, node := range db.clients {
		candidates[node] = true
	}
	for _, e := range db.servers {
		for _, clients := range e.Use {
			for c := range clients {
				candidates[c] = true
			}
		}
	}
	db.mu.Unlock()

	var report SweepReport
	dead := make(map[transport.Addr]bool)
	for node := range candidates {
		if node == db.node.Name() {
			continue
		}
		if err := sim.Ping(ctx, cli, node); err != nil {
			dead[node] = true
			report.DeadClients = append(report.DeadClients, node)
		}
	}
	if len(dead) == 0 {
		return report
	}
	sort.Slice(report.DeadClients, func(i, k int) bool { return report.DeadClients[i] < report.DeadClients[k] })

	// Abort in-flight actions from dead clients: restores entry pre-images
	// and releases their locks.
	db.mu.Lock()
	defer db.mu.Unlock()
	var doomed []string
	for act, node := range db.clients {
		if dead[node] {
			doomed = append(doomed, act)
		}
	}
	sort.Strings(doomed)
	for _, act := range doomed {
		db.endActionLocked(act, false)
		report.AbortedActions++
	}

	// Zero use-list counters contributed by dead clients. This is cleanup
	// outside the lock protocol by design: the counters' owners are gone
	// and can never release them. Only the entries it changed are rewritten.
	for id, e := range db.servers {
		changed := false
		for host, clients := range e.Use {
			for c := range clients {
				if dead[c] {
					delete(clients, c)
					delete(e.committed, useKey{host, c})
					report.ClearedCounters++
					changed = true
				}
			}
		}
		if changed {
			db.addRecordLocked(db.keysOf(id).svRecord, e.record(&db.rec))
		}
	}
	db.writeRecordsLocked()
	return report
}
