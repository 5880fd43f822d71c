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
// under the read lock; a check names none and takes the same lock. Each
// allocation, in call order: the object's name rendered for the request,
// the request payload, the server's one copy of the request's strings, the
// reply frame and — a read only — the result bytes the client decodes. The
// records themselves are values (9 and 8 while Invoke and Method reached
// the codec through pointer methods, which put the request and the reply on
// the heap on each side).
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
		{"read", InvokeReq{Action: "a1", Method: "get"}, 5},
		{"check", InvokeReq{Action: "a1"}, 4},
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
