//go:build goexperiment.synctest

package bubble

import (
	"os"
	"sync"
	"testing"
)

// TestWedgedBubbleChild is the child process of
// TestWatchdogEndsWedgedBubble, which sets wedgeEnv: a bubble whose only
// goroutine waits on a sync.Mutex it already holds. The bubble's clock never
// moves, so only the watchdog can end the run.
func TestWedgedBubbleChild(t *testing.T) {
	if os.Getenv(wedgeEnv) == "" {
		t.Skip("the child of TestWatchdogEndsWedgedBubble")
	}
	RunWithin(childBound, func() {
		var mu sync.Mutex
		mu.Lock()
		mu.Lock()
	})
	t.Fatal("a wedged bubble returned")
}
