// Package conc holds the minimal fan-out helpers used by the parallel
// invocation/commit pipeline: run n independent pieces of work
// concurrently, wait for all, and let the caller collect results by index
// so the output order stays deterministic regardless of completion order.
package conc

import (
	"sync"
	"time"
)

// workerIdle is the interval a parked worker must see pass without a leg
// before it exits.
const workerIdle = 10 * time.Second

// leg is one index of one Do on its way to a worker.
type leg struct {
	fn func(i int)
	i  int
	wg *sync.WaitGroup
}

func (l leg) run() {
	defer l.wg.Done()
	l.fn(l.i)
}

// parked hands a leg to a worker waiting for one: unbuffered, so a send
// succeeds only if a worker is parked.
var parked = make(chan leg)

// worker runs first, then whatever legs it is handed, on a stack already
// grown to fit them; it exits after a whole idle interval without one.
func worker(first leg) {
	first.run()
	idle := time.NewTicker(workerIdle)
	defer idle.Stop()
	for worked := true; ; {
		select {
		case l := <-parked:
			l.run()
			worked = true
		case <-idle.C:
			if !worked {
				return
			}
			worked = false
		}
	}
}

// Do runs fn(0..n-1) concurrently and waits for all to finish. Leg 0 runs
// on the caller's goroutine, so n <= 1 involves no other; legs 1..n-1 go
// to parked workers, which keep the stacks earlier legs grew, and a new
// worker starts only when none is parked — a caller that fans out two or
// three ways over and over starts none after the first time. Nothing is
// promised about the order in which legs start or finish. Do returns only
// when every leg has, also when leg 0 panics; a panic in another leg ends
// the program, as a panic on any goroutine without a recover does.
func Do(n int, fn func(i int)) {
	if n <= 1 {
		if n == 1 {
			fn(0)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	defer wg.Wait()
	for i := 1; i < n; i++ {
		l := leg{fn, i, &wg}
		select {
		case parked <- l:
		default:
			go worker(l)
		}
	}
	fn(0)
}

// DoErr runs fn(0..n-1) concurrently, waits for all, and returns the
// per-index errors — the common "fan out, collect failures in input
// order" shape of the commit pipeline.
func DoErr(n int, fn func(i int) error) []error {
	errs := make([]error, n)
	Do(n, func(i int) { errs[i] = fn(i) })
	return errs
}
