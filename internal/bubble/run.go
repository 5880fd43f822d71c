//go:build goexperiment.synctest

package bubble

import (
	"testing/synctest"
	"time"
)

// Run is synctest.Run under a watchdog of Bound.
func Run(f func()) { RunWithin(Bound, f) }

// RunWithin is synctest.Run under a watchdog of bound, started before the
// bubble and so on the wall clock.
func RunWithin(bound time.Duration, f func()) {
	stop := watch(bound)
	defer stop()
	synctest.Run(f)
}
