package arjuna

// In-package test: it calls the unexported retryDelay directly, the one
// place the client's jitter source is drawn from.

import (
	"slices"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestRetryJitterIsSeededPerClient: a client's backoff jitter comes from
// its own source, seeded by the deployment's network seed and the client's
// node name — so the same seed replays each client's delay sequence
// exactly (what lets a chaos seed reproduce a retrying client), while two
// clients of one deployment still draw different sequences (what the
// jitter is for: clients refused together must not retry together).
func TestRetryJitterIsSeededPerClient(t *testing.T) {
	delays := func(seed int64, name string) []time.Duration {
		sys, err := Open(WithClients(2), WithMemNetwork(transport.MemOptions{Seed: seed}))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		cl, err := sys.Client(name)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]time.Duration, 12)
		for i := range out {
			out[i] = cl.retryDelay(2*time.Millisecond, i+1)
		}
		return out
	}
	for _, name := range []string{"c1", "c2"} {
		if a, b := delays(42, name), delays(42, name); !slices.Equal(a, b) {
			t.Fatalf("%s: same seed, different delay sequences:\n %v\n %v", name, a, b)
		}
	}
	if a, b := delays(42, "c1"), delays(42, "c2"); slices.Equal(a, b) {
		t.Fatalf("c1 and c2 draw the same delay sequence under one seed: %v", a)
	}
	if a, b := delays(42, "c1"), delays(43, "c1"); slices.Equal(a, b) {
		t.Fatalf("seeds 42 and 43 give c1 the same delay sequence: %v", a)
	}
	// The jitter stays inside its documented ±50% band around the capped
	// exponential.
	for i, d := range delays(7, "c1") {
		want := 2 * time.Millisecond << i
		if want > maxBackoff {
			want = maxBackoff
		}
		if d < want/2 || d > want {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i+1, d, want/2, want)
		}
	}
}
