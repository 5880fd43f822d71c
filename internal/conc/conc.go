// Package conc holds the minimal fan-out helper used by the parallel
// invocation/commit pipeline: run n independent pieces of work
// concurrently, wait for all, and let the caller collect results by index
// so the output order stays deterministic regardless of completion order.
//
// The workers that run the legs belong to a Pool, and a Pool belongs to
// whoever fans out through it (an object server, a group host, an action
// manager, a binder). Nothing is shared process-wide, so a Pool made and
// first used inside a testing/synctest bubble parks its workers on the
// bubble's own channel and timers, and they count as durably blocked there.
package conc

import (
	"sync"
	"sync/atomic"
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

// Pool runs fan-outs on workers it keeps parked between them. The zero
// value is ready to use; a Pool must not be copied after its first Do.
type Pool struct {
	once sync.Once
	// parked hands a leg to a parked worker: unbuffered, and sent on only
	// by a Do that has claimed one of the idle workers, so the send always
	// finds its receiver, at once or as soon as the worker re-parks.
	parked chan leg
	// idle counts the workers parked, or about to park, that no Do has
	// claimed yet. A worker counts itself before it reports its leg done,
	// so a caller that fans out again the moment Do returns finds it.
	idle atomic.Int32
}

// claim takes one idle worker for a Do's leg, or reports there is none.
func (p *Pool) claim() bool {
	for {
		n := p.idle.Load()
		if n == 0 {
			return false
		}
		if p.idle.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// worker runs first, then whatever legs it is handed, on a stack already
// grown to fit them; it exits after a whole idle interval without one, if
// it can take itself out of the idle count before a Do claims it.
func (p *Pool) worker(first leg) {
	p.run(first)
	idle := time.NewTicker(workerIdle)
	defer idle.Stop()
	for worked := true; ; {
		select {
		case l := <-p.parked:
			p.run(l)
			worked = true
		case <-idle.C:
			if !worked && p.claim() {
				return
			}
			worked = false
		}
	}
}

// run runs l, then counts the worker idle before it tells l's Do.
func (p *Pool) run(l leg) {
	l.fn(l.i)
	p.idle.Add(1)
	l.wg.Done()
}

// Do runs fn(0..n-1) concurrently and waits for all to finish. Leg 0 runs
// on the caller's goroutine, so n <= 1 involves no other; legs 1..n-1 go
// to the pool's idle workers, which keep the stacks earlier legs grew, and
// a new worker starts only when none is idle — a caller that fans out two
// or three ways over and over starts none after the first time. Nothing is
// promised about the order in which legs start or finish. Do returns only
// when every leg has, also when leg 0 panics; a panic in another leg ends
// the program, as a panic on any goroutine without a recover does.
func (p *Pool) Do(n int, fn func(i int)) {
	if n <= 1 {
		if n == 1 {
			fn(0)
		}
		return
	}
	p.once.Do(p.init)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	defer wg.Wait()
	for i := 1; i < n; i++ {
		l := leg{fn, i, &wg}
		if p.claim() {
			p.parked <- l
		} else {
			go p.worker(l)
		}
	}
	fn(0)
}

func (p *Pool) init() { p.parked = make(chan leg) }

// DoErr runs fn(0..n-1) concurrently, waits for all, and returns the
// per-index errors — the common "fan out, collect failures in input
// order" shape of the commit pipeline.
func (p *Pool) DoErr(n int, fn func(i int) error) []error {
	errs := make([]error, n)
	p.Do(n, func(i int) { errs[i] = fn(i) })
	return errs
}
