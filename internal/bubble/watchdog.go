// Package bubble runs tests inside testing/synctest bubbles under a
// wall-clock watchdog, so that a wedged bubble fails within a bound instead
// of hanging until its test binary's timeout.
//
// A bubble's clock moves only when every goroutine in it is durably
// blocked, and a goroutine waiting on a sync.Mutex is not: a run wedged on
// a mutex freezes the bubble's clock, so no context in it ever ends and no
// in-bubble timeout can fire. The watchdog runs outside the bubble, on the
// wall clock. Once a bubble has run for its bound it writes every
// goroutine's stack to standard error and ends the process with status 2.
//
// Run needs the synctest experiment, as testing/synctest does:
//
//	GOEXPERIMENT=synctest go test ./internal/chaos
package bubble

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// Bound is how long Run lets one bubble run on the wall clock: far longer
// than any bubbled run takes (seconds), and well under the 15 minutes a CI
// step waits before it kills the job without a dump.
const Bound = 3 * time.Minute

// watch starts the watchdog: unless stop is called within bound of wall
// clock, it dumps every goroutine's stack to standard error and exits the
// process with status 2. Call it outside any bubble, or its timer is the
// bubble's.
func watch(bound time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		timer := time.NewTimer(bound)
		defer timer.Stop()
		select {
		case <-done:
		case <-timer.C:
			fmt.Fprintf(os.Stderr, "bubble: still running after %v of wall clock; every goroutine's stack follows\n\n%s\n", bound, allStacks())
			os.Exit(2)
		}
	}()
	return func() { close(done) }
}

// allStacks returns every goroutine's stack, however long.
func allStacks() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}
