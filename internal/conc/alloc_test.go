//go:build !race

package conc

import (
	"runtime"
	"testing"
	"time"
)

// TestDoAllocsAndStartsNothingWarm pins what a two-way fan-out costs once
// a worker is parked: leg 1 goes to it, so no goroutine starts, and the
// only allocation is the WaitGroup the two sides share.
func TestDoAllocsAndStartsNothingWarm(t *testing.T) {
	var hits [2]int
	leg := func(i int) { hits[i]++ }
	var p Pool
	fanOut := func() { p.Do(2, leg) }
	fanOut() // starts the worker
	// The goroutine of the run before this one (under -count) may still be
	// on its way out; let it go, so the count sees only what Do starts.
	time.Sleep(10 * time.Millisecond)
	before := runtime.NumGoroutine()
	if got := testing.AllocsPerRun(500, fanOut); got > 1 {
		t.Fatalf("a warm Do(2) allocated %.0f objects, want at most 1", got)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines went from %d to %d across 500 warm Do(2) calls", before, after)
	}
	if hits[0] != hits[1] || hits[0] < 500 {
		t.Fatalf("legs ran %v times", hits)
	}
}
