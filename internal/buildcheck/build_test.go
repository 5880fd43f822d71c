// Package buildcheck compile-guards every runnable package in the module:
// examples and commands have no test files of their own, so without this
// check API drift in pkg/arjuna would break `go run ./examples/...` for
// users while CI stayed green. The benchmark (bench/) is its own module,
// which `go build ./... && go test ./...` never enters, so it is vetted
// from here too.
package buildcheck

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// moduleRoot locates the repository root relative to this file.
func moduleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// goTool locates the go command, skipping the test where there is none.
func goTool(t *testing.T) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	return gobin
}

func TestAllPackagesBuild(t *testing.T) {
	gobin := goTool(t)
	root := moduleRoot(t)
	for _, pattern := range []string{"./examples/...", "./cmd/..."} {
		cmd := exec.Command(gobin, "build", pattern)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go build %s: %v\n%s", pattern, err, out)
		}
	}
}

// TestBenchModuleVets type-checks the benchmark against this checkout's
// packages (its go.mod replaces repro with ../), under the flags
// bench/run.sh builds it with.
func TestBenchModuleVets(t *testing.T) {
	cmd := exec.Command(goTool(t), "vet", "./...")
	cmd.Dir = filepath.Join(moduleRoot(t), "bench")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
