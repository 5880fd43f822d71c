package buildcheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// readmeMaxLines bounds README.md: it says what the code does now, and the
// history of how it got there lives in CHANGES.md.
const readmeMaxLines = 500

var (
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	testName    = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)
	repoRoots   = []string{"internal/", "pkg/", "cmd/", "examples/", "bench/"}
	roadmapItem = regexp.MustCompile(`(?i)roadmap items?\s`)
)

// TestReadmeNamesWhatExists keeps README.md true to the tree it ships in.
// README is at most readmeMaxLines lines. Every test, fuzz target or
// benchmark it names in backticks is declared in the module; a trailing `*`
// names a prefix, and so does a name inside a command (a span with spaces,
// or a line of a fenced block), where it is a -run or -fuzz pattern. Every
// repository path it names in backticks exists, once a `.Ident` suffix such
// as the one in `pkg/arjuna.Client` is cut. And it cites no ROADMAP item by
// number: those numbers change whenever ROADMAP.md is re-anchored.
func TestReadmeNamesWhatExists(t *testing.T) {
	root := moduleRoot(t)
	data, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) > readmeMaxLines {
		t.Errorf("README.md has %d lines, over %d: what is history belongs in CHANGES.md", len(lines), readmeMaxLines)
	}
	declared := declaredTestFuncs(t, root)
	fenced := false
	for i, line := range lines {
		at := i + 1
		if roadmapItem.MatchString(line) {
			t.Errorf("README.md:%d cites a ROADMAP item by number, which the next re-anchor renumbers: %q", at, line)
		}
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		var spans []string
		if fenced {
			spans = []string{line}
		} else {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				spans = append(spans, m[1])
			}
		}
		for _, span := range spans {
			command := fenced || strings.ContainsAny(span, " \t")
			for _, name := range testName.FindAllString(span, -1) {
				prefix := command || strings.HasSuffix(name, "*")
				name = strings.TrimSuffix(name, "*")
				if !slices.ContainsFunc(declared, func(fn string) bool {
					return fn == name || prefix && strings.HasPrefix(fn, name)
				}) {
					t.Errorf("README.md:%d names %s, which no test, fuzz target or benchmark in the module is named (or, for a prefix, starts with)", at, name)
				}
			}
			for _, field := range strings.Fields(span) {
				if path, ok := repoPath(field); ok && !pathExists(root, path) {
					t.Errorf("README.md:%d names %s, which does not exist", at, field)
				}
			}
		}
	}
}

// repoPath reports whether a word of a code span is a path into the
// repository, and returns it with any leading "./" and trailing "/..." cut.
func repoPath(field string) (string, bool) {
	path := strings.TrimRight(strings.TrimPrefix(field, "./"), ",;:)")
	path = strings.TrimSuffix(path, "/...")
	for _, r := range repoRoots {
		if strings.HasPrefix(path, r) {
			return path, true
		}
	}
	return "", false
}

// pathExists reports whether path names a file or directory under root,
// as written or with an exported identifier cut from its last element
// (pkg/arjuna.Client.Apply names pkg/arjuna; internal/rpc.go names no
// package).
func pathExists(root, path string) bool {
	if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(path))); err == nil {
		return true
	}
	dir, last := filepath.Split(path)
	base, ident, cut := strings.Cut(last, ".")
	if !cut || !token.IsExported(ident) {
		return false
	}
	_, err := os.Stat(filepath.Join(root, filepath.FromSlash(dir+base)))
	return err == nil
}

// declaredTestFuncs returns the names of the top-level functions declared
// in the repository's test files, the benchmark module's included.
func declaredTestFuncs(t *testing.T, root string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (path != root && strings.HasPrefix(d.Name(), ".")) {
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
	return names
}
