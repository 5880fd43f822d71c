package bubble

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const (
	// wedgeEnv makes TestWedgedBubbleChild wedge.
	wedgeEnv = "BUBBLE_WEDGE_CHILD"
	// childBound is the child's watchdog bound.
	childBound = 2 * time.Second
)

// TestWatchdogEndsWedgedBubble builds this package's tests with the synctest
// experiment and runs TestWedgedBubbleChild, a bubble wedged on a
// sync.Mutex, in a child process. The child must exit non-zero within its
// watchdog's bound plus slack, with every goroutine's stack — the wedged
// Lock among them — on its standard error.
func TestWatchdogEndsWedgedBubble(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a test binary")
	}
	bin := filepath.Join(t.TempDir(), "bubble.test")
	build := exec.Command("go", "test", "-c", "-o", bin, ".")
	build.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the child: %v\n%s", err, out)
	}
	child := exec.Command(bin, "-test.run=^TestWedgedBubbleChild$", "-test.timeout=5m")
	child.Env = append(os.Environ(), wedgeEnv+"=1")
	var stderr bytes.Buffer
	child.Stderr = &stderr
	start := time.Now()
	err := child.Run()
	took := time.Since(start)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("child: err = %v, want exit status 2\n%s", err, stderr.Bytes())
	}
	if took > childBound+10*time.Second {
		t.Errorf("child took %v, want about its %v bound", took, childBound)
	}
	dump := stderr.String()
	for _, want := range []string{"bubble: still running after 2s", "goroutine ", "sync.(*Mutex).Lock", "TestWedgedBubbleChild"} {
		if !strings.Contains(dump, want) {
			t.Errorf("child's standard error lacks %q:\n%s", want, dump)
		}
	}
}
