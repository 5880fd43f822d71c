// Package buildcheck compile-guards every runnable package in the module:
// examples and commands have no test files of their own, so without this
// check API drift in pkg/arjuna would break `go run ./examples/...` for
// users while CI stayed green. The benchmark (bench/) is its own module,
// which `go build ./... && go test ./...` never enters, so it is vetted
// from here too. It also checks README's census of the facade's options
// against the source, that README stays short and names only tests and
// paths that exist, that RPC payloads keep to one codec, and that CI's
// test selections name tests that exist.
package buildcheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
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

// TestEveryOptionHasAReadmeRow keeps the option census true: each exported
// With*/Client* function of pkg/arjuna/options.go must have a row in
// README's Options table — name · who sets it outside tests · what
// justifies it — and the table may name no option that is gone. "tests
// only" is an answer to who sets an option, never a justification: that
// cell wants a paper section, a ledger or measured row, or a sentence
// saying what a test could not do without the option. The counts README
// states above the table are the counts options.go exports.
func TestEveryOptionHasAReadmeRow(t *testing.T) {
	root := moduleRoot(t)
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, "pkg", "arjuna", "options.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	options := map[string]bool{}
	var withs, clients int
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv != nil {
			continue
		}
		switch {
		case strings.HasPrefix(fn.Name.Name, "With"):
			withs++
		case strings.HasPrefix(fn.Name.Name, "Client"):
			clients++
		default:
			continue
		}
		options[fn.Name.Name] = true
	}
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "\n### Options\n")
	if !ok {
		t.Fatal("README.md has no \"### Options\" section")
	}
	table, _, _ = strings.Cut(table, "\n#")
	if counts := fmt.Sprintf("%d `With*` deployment options and %d `Client*` options", withs, clients); !strings.Contains(table, counts) {
		t.Errorf("README's Options section does not say %q, which is what pkg/arjuna/options.go exports", counts)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), "|")
		name := strings.Trim(strings.TrimSpace(cells[0]), "`")
		if len(cells) != 3 || !token.IsIdentifier(name) || name == "Option" {
			continue
		}
		if strings.TrimSpace(cells[1]) == "" || strings.TrimSpace(cells[2]) == "" {
			t.Errorf("README Options row for %s has an empty cell", name)
		}
		if strings.EqualFold(strings.TrimSpace(cells[2]), "tests only") {
			t.Errorf("README Options row for %s is justified by \"tests only\": nothing ships that only its own tests switch on", name)
		}
		if !options[name] {
			t.Errorf("README Options table names %s, which pkg/arjuna/options.go does not export", name)
		}
		rows[name] = true
	}
	for name := range options {
		if !rows[name] {
			t.Errorf("%s has no row in README's Options table (name | set outside tests by | justified by)", name)
		}
	}
}

// TestCIRunPatternsNameTests keeps CI's test selections from rotting: a
// renamed or deleted test would leave a `-run` alternation matching nothing,
// and the step would pass having run nothing. Every alternative in the
// workflow's `-run` patterns that names a test — Test… or Fuzz… and more —
// must be a prefix of a test or fuzz function declared in the module.
// Fragments that name none (`^$`, `Alloc`, a bare `Fuzz`) are left alone.
func TestCIRunPatternsNameTests(t *testing.T) {
	root := moduleRoot(t)
	workflow, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ is a module of its own, which CI's -run patterns never select.
			if d.Name() == "testdata" || path == filepath.Join(root, "bench") || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, run := range regexp.MustCompile(`-run '([^']*)'`).FindAllStringSubmatch(string(workflow), -1) {
		for _, alt := range strings.Split(run[1], "|") {
			if alt == "Test" || alt == "Fuzz" || !(strings.HasPrefix(alt, "Test") || strings.HasPrefix(alt, "Fuzz")) {
				continue
			}
			checked++
			if !slices.ContainsFunc(names, func(name string) bool { return strings.HasPrefix(name, alt) }) {
				t.Errorf("ci.yml runs %q, which no test or fuzz function in the module is named after", alt)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test names in ci.yml's -run patterns: the workflow's shape changed under this check")
	}
}

// TestNoGobOutsideExamples keeps the RPC layer to one codec: every payload
// is an rpc.Wire record, so no package outside examples/ — whose directory
// example serialises its own object state — imports encoding/gob.
func TestNoGobOutsideExamples(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			// Dot directories hold version control and build caches, not
			// the module's packages.
			if rel == "examples" || d.Name() == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range file.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				t.Errorf("%s imports encoding/gob: RPC payloads are rpc.Wire records, and nothing outside examples/ needs gob", rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
