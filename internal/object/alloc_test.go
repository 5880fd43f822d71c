//go:build !race

package object

import (
	"context"
	"testing"
)

// The allocation pins are built without the race runtime, which allocates
// on its own account.

// TestInvokeAllocs pins exactly what one request through ServerRef.Invoke
// costs over the Mem transport, client and server together, once the
// object is active and the action bound: a read names a method and runs it
// under the read lock; a check names none and takes the same lock. The
// check's one allocation fewer is the read's result.
func TestInvokeAllocs(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		req  InvokeReq
		want float64
	}{
		{"read", InvokeReq{Action: "a1", Method: "get"}, 9},
		{"check", InvokeReq{Action: "a1"}, 8},
	} {
		call := func() {
			if _, err := ref.Invoke(ctx, c.req); err != nil {
				t.Fatal(err)
			}
		}
		call() // binds the action and creates the node pair's metric handles
		if got := testing.AllocsPerRun(200, call); got != c.want {
			t.Errorf("%s: %.0f allocations per request, want %.0f", c.name, got, c.want)
		}
	}
}
