package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/transport"
)

// newBreakerCluster builds a three-node cluster with fast breakers.
func newBreakerCluster(t *testing.T) (*Cluster, *Node, *Node, *Node) {
	t.Helper()
	c := NewCluster(transport.MemOptions{})
	c.SetBreakers(rpc.BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour})
	a := c.Add("alpha")
	b := c.Add("beta")
	g := c.Add("gamma")
	return c, a, b, g
}

// trip drives a's breaker toward peer open via failed pings.
func trip(t *testing.T, a *Node, peer transport.Addr) {
	t.Helper()
	cli := a.Client()
	for i := 0; i < 2; i++ {
		if err := Ping(context.Background(), cli, peer); err == nil {
			t.Fatalf("ping %d to crashed %s succeeded", i, peer)
		}
	}
	if st := a.Breakers().State(peer); st != rpc.StateOpen {
		t.Fatalf("breaker(%s) = %v, want open", peer, st)
	}
}

func TestClusterBreakersTripAndFastFail(t *testing.T) {
	_, a, b, _ := newBreakerCluster(t)
	b.Crash()
	trip(t, a, b.Name())
	err := Ping(context.Background(), a.Client(), b.Name())
	if !errors.Is(err, rpc.ErrPeerUnavailable) {
		t.Fatalf("err = %v, want fast-fail ErrPeerUnavailable", err)
	}
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatal("fast-fail must also match ErrUnreachable")
	}
}

func TestRecoverResetsBreakersClusterWide(t *testing.T) {
	_, a, b, g := newBreakerCluster(t)
	b.Crash()
	trip(t, a, b.Name())
	trip(t, g, b.Name())
	b.Recover(nil)
	if st := a.Breakers().State(b.Name()); st != rpc.StateClosed {
		t.Fatalf("alpha's breaker after recover = %v, want closed", st)
	}
	if st := g.Breakers().State(b.Name()); st != rpc.StateClosed {
		t.Fatalf("gamma's breaker after recover = %v, want closed", st)
	}
	if err := Ping(context.Background(), a.Client(), b.Name()); err != nil {
		t.Fatalf("ping after recover: %v", err)
	}
}

func TestHealHookResetsBreakers(t *testing.T) {
	c, a, b, _ := newBreakerCluster(t)
	c.Faults().Partition("alpha", "beta")
	trip(t, a, b.Name())
	c.Faults().Heal("alpha", "beta")
	if st := a.Breakers().State(b.Name()); st != rpc.StateClosed {
		t.Fatalf("breaker after heal = %v, want closed", st)
	}
	if err := Ping(context.Background(), a.Client(), b.Name()); err != nil {
		t.Fatalf("ping after heal: %v", err)
	}
	// Clear() resets everything.
	c.Faults().Partition("alpha", "beta")
	trip(t, a, b.Name())
	c.Faults().Clear()
	if st := a.Breakers().State(b.Name()); st != rpc.StateClosed {
		t.Fatalf("breaker after Clear = %v, want closed", st)
	}
}
