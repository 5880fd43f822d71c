package conc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoRunsAllIndices(t *testing.T) {
	var p Pool
	for _, n := range []int{0, 1, 2, 17} {
		var seen sync.Map
		var count atomic.Int64
		p.Do(n, func(i int) {
			seen.Store(i, true)
			count.Add(1)
		})
		if got := count.Load(); got != int64(n) {
			t.Fatalf("n=%d: ran %d times", n, got)
		}
		for i := 0; i < n; i++ {
			if _, ok := seen.Load(i); !ok {
				t.Fatalf("n=%d: index %d never ran", n, i)
			}
		}
	}
}

// TestDoRunsEveryLegOnceAndWaits is the contract parked workers must not
// bend: every index runs exactly once and Do returns only after all did —
// also when leg 0, which runs on the caller, panics.
func TestDoRunsEveryLegOnceAndWaits(t *testing.T) {
	var p Pool
	for _, n := range []int{2, 3, 9} {
		for _, panicAtZero := range []bool{false, true} {
			ran := make([]atomic.Int32, n)
			var done atomic.Int32
			func() {
				defer func() {
					if r := recover(); (r != nil) != panicAtZero {
						t.Fatalf("n=%d: recovered %v, leg 0 panics = %v", n, r, panicAtZero)
					}
				}()
				p.Do(n, func(i int) {
					ran[i].Add(1)
					if i == 0 && panicAtZero {
						defer done.Add(1)
						panic("leg 0")
					}
					runtime.Gosched() // let the caller's leg finish first when it can
					done.Add(1)
				})
			}()
			if got := done.Load(); got != int32(n) {
				t.Fatalf("n=%d panic=%v: Do returned with %d of %d legs finished", n, panicAtZero, got, n)
			}
			for i := range ran {
				if c := ran[i].Load(); c != 1 {
					t.Fatalf("n=%d panic=%v: leg %d ran %d times", n, panicAtZero, i, c)
				}
			}
		}
	}
}
