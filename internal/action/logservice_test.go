package action

import (
	"testing"

	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/transport"
)

func TestTxOrigin(t *testing.T) {
	mgr := NewManager("c7", nil)
	tx := mgr.BeginTop().ID()
	if origin, ok := TxOrigin(tx); !ok || origin != "c7" {
		t.Fatalf("TxOrigin(%q) = %q, %v; want c7, true", tx, origin, ok)
	}
	for _, bad := range []string{"", "noseps", "a/b", ":1:2"} {
		if origin, ok := TxOrigin(bad); ok {
			t.Fatalf("TxOrigin(%q) = %q, true; want false", bad, origin)
		}
	}
	// An origin containing slashes (recovery managers use "node/role")
	// truncates at the first slash — the node part routes the query.
	if origin, ok := TxOrigin("st1/st-recovery:1:4"); ok || origin != "" {
		// "st1" alone is not a parseable UID prefix here because the
		// truncation removes the epoch/seq parts too.
		t.Fatalf("TxOrigin(st1/st-recovery:1:4) = %q, %v", origin, ok)
	}
}

func TestOriginLogRoutesToCoordinator(t *testing.T) {
	net := transport.NewMem(transport.MemOptions{}, nil)
	cli := rpc.Client{Net: net, From: "st1"}

	// Coordinator c1 exposes its log; c2 exposes a different log.
	for _, c := range []struct {
		node transport.Addr
		log  *MemLog
		tx   string
	}{
		{"c1", NewMemLog(), "c1:1:1"},
		{"c2", NewMemLog(), "c2:1:1"},
	} {
		srv := rpc.NewServer()
		c.log.Record(c.tx, store.OutcomeCommitted)
		RegisterLogService(srv, c.log)
		net.Register(c.node, srv.Handler())
	}

	l := OriginLog{Client: cli}
	if got := l.Lookup("c1:1:1"); got != store.OutcomeCommitted {
		t.Fatalf("c1:1:1 = %v, want committed", got)
	}
	if got := l.Lookup("c2:1:1"); got != store.OutcomeCommitted {
		t.Fatalf("c2:1:1 = %v, want committed", got)
	}
	// Unknown transaction at a reachable coordinator: the affirmative "no
	// record" answer — presumed abort applies.
	if got := l.Lookup("c1:1:99"); got != store.OutcomeUnknown {
		t.Fatalf("unknown tx = %v, want unknown", got)
	}
	// Unreachable coordinator: NOT presumed abort — the record may exist
	// but be unreadable; the intention must stay pending.
	if got := l.Lookup("ghost:1:1"); got != store.OutcomeUnavailable {
		t.Fatalf("unreachable coordinator = %v, want unavailable", got)
	}
	// Malformed tx names no coordinator that could ever answer: abort.
	if got := l.Lookup("not-a-uid"); got != store.OutcomeUnknown {
		t.Fatalf("malformed tx = %v, want unknown", got)
	}
	// A Resolve hook can veto origins that are not coordinators.
	vetoed := OriginLog{Client: cli, Resolve: func(origin string) (transport.Addr, bool) {
		return "", false
	}}
	if got := vetoed.Lookup("c1:1:1"); got != store.OutcomeUnknown {
		t.Fatalf("vetoed origin = %v, want unknown", got)
	}
}
