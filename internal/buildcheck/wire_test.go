package buildcheck

import (
	"encoding/hex"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/object"
	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
	"repro/internal/store"
)

// TestWireRegistry checks every record of the module against the tag
// registry in internal/rpc/doc.go and against its own codec:
//
//   - wireSamples holds a sample of every type with a ParseWire method, and
//     of nothing else;
//   - every tag is unique across the module, inside its package's block of
//     the registry and none of the retired tags;
//   - every sample round-trips, and every proper prefix of its encoding is
//     refused;
//   - every sample encodes to the bytes in testdata/wire.golden: the
//     format, tags and versions are what peers of the same build expect, so
//     a change to any of them shows here and bumps the record's version.
func TestWireRegistry(t *testing.T) {
	root := moduleRoot(t)
	samples := wireSamples()

	var names []string
	for _, rec := range samples {
		names = append(names, rec.Name())
	}
	declared := wireRecordTypes(t, root)
	slices.Sort(names)
	if !slices.Equal(names, declared) {
		t.Errorf("wireSamples covers %v,\nthe module declares ParseWire on %v", names, declared)
	}

	doc, err := os.ReadFile(filepath.Join(root, "internal", "rpc", "doc.go"))
	if err != nil {
		t.Fatal(err)
	}
	blocks, retired := tagRegistry(t, string(doc))
	wiretest.TagsUnique(t, samples...)
	for _, rec := range samples {
		pkg := strings.TrimPrefix(reflect.TypeOf(rec.Value).PkgPath(), "repro/")
		if b, ok := blocks[pkg]; !ok || rec.Tag < b[0] || rec.Tag > b[1] {
			t.Errorf("%s: tag %#x is outside %s's block %#x–%#x of the registry", rec.Name(), rec.Tag, pkg, b[0], b[1])
		}
		if retired[rec.Tag] {
			t.Errorf("%s: tag %#x is retired", rec.Name(), rec.Tag)
		}
	}

	wiretest.RoundTrip(t, samples...)
	wiretest.Truncated(t, samples...)

	golden, err := os.ReadFile(filepath.Join("testdata", "wire.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		name, enc, _ := strings.Cut(line, " ")
		want[name] = enc
	}
	for _, rec := range samples {
		if got := hex.EncodeToString(rec.Encode()); got != want[rec.Name()] {
			t.Errorf("%s encodes as\n%s\nwant (testdata/wire.golden)\n%s", rec.Name(), got, want[rec.Name()])
		}
	}
	if len(want) != len(samples) {
		t.Errorf("testdata/wire.golden holds %d records, wireSamples %d", len(want), len(samples))
	}
}

// wireRecordTypes lists, as pkg.Type, every type of the module outside
// bench/ and tests with a ParseWire method.
func wireRecordTypes(t *testing.T, root string) []string {
	t.Helper()
	var types []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || path == filepath.Join(root, "bench") || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "ParseWire" {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			types = append(types, file.Name.Name+"."+recv.(*ast.Ident).Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(types)
	return types
}

// tagRegistry reads the registry of internal/rpc/doc.go: each package's
// block of tags, and the tags retired, one by one or a block at a time.
func tagRegistry(t *testing.T, doc string) (blocks map[string][2]byte, retired map[byte]bool) {
	t.Helper()
	hexByte := func(s string) byte {
		v, err := strconv.ParseUint(s, 16, 8)
		if err != nil {
			t.Fatal(err)
		}
		return byte(v)
	}
	blocks = map[string][2]byte{}
	retired = map[byte]bool{}
	for _, m := range regexp.MustCompile(`(?m)^//\t0x([0-9a-f]{2})–0x([0-9a-f]{2})\s+(\S+)`).FindAllStringSubmatch(doc, -1) {
		lo, hi := hexByte(m[1]), hexByte(m[2])
		if m[3] == "retired:" {
			for tag := int(lo); tag <= int(hi); tag++ {
				retired[byte(tag)] = true
			}
			continue
		}
		blocks[m[3]] = [2]byte{lo, hi}
	}
	_, rest, ok := strings.Cut(doc, "Retired so far:")
	if !ok || len(blocks) == 0 {
		t.Fatal(`internal/rpc/doc.go has no tag registry, or no "Retired so far:" list`)
	}
	rest, _, _ = strings.Cut(rest, "\n//\n")
	for _, m := range regexp.MustCompile(`0x([0-9a-f]{2})(?:–0x([0-9a-f]{2}))?`).FindAllStringSubmatch(rest, -1) {
		lo, hi := hexByte(m[1]), hexByte(m[1])
		if m[2] != "" {
			hi = hexByte(m[2])
		}
		for tag := int(lo); tag <= int(hi); tag++ {
			retired[byte(tag)] = true
		}
	}
	return blocks, retired
}

// TestListCountsBoundDecodeAllocation: a list's count cannot make a decoder
// allocate far beyond its frame. Each record that carries a list gets a
// crafted frame whose count is followed by L bytes, claims as many elements
// as those could hold at some least element size, and whose elements are
// garbage, so decoding fails
// at the first one; what it allocates before failing stays under
// 32 bytes per input byte. The decoders bound a count by each element's
// least encoded size, so the worst a count can ask for is the size of an
// element over that, 22 bytes at most (an object.PrepareItem: 64 bytes for
// three encoded). Bounding a count by one byte per element let a 1<<18-byte
// core.BatchReq preallocate 1<<18 ops of 176 bytes.
func TestListCountsBoundDecodeAllocation(t *testing.T) {
	const L = 1 << 18
	for _, c := range []struct {
		rec    wiretest.Record
		before int // one-byte zero fields ahead of the list
		lead   []byte
	}{
		{rec: wiretest.Of(core.BatchReq{})},
		{rec: wiretest.Of(core.BatchResp{})},
		{rec: wiretest.Of(core.EntryRecord{}), before: 3}, // the Use list, after Deleted, Nodes and Class
		{rec: wiretest.Of(core.NameGetResp{})},
		{rec: wiretest.Of(core.NameUpdateReq{}), before: 4}, // after a UID and the host
		{rec: wiretest.Of(object.InvokeReq{}), before: 7},
		{rec: wiretest.Of(object.InvokeResp{}), before: 7, lead: []byte{byte(object.CarryPrepare), 0, 0}}, // the vote's prepared nodes
		{rec: wiretest.Of(object.PrepareReq{}), before: 2},
		{rec: wiretest.Of(object.PrepareResp{})},
		{rec: wiretest.Of(object.EndReq{}), before: 1},
		{rec: wiretest.Of(object.EndResp{})},
		{rec: wiretest.Of(store.PrepareReq{}), before: 2},
		{rec: wiretest.Of(store.ResolveResp{})},
		{rec: wiretest.Of(group.SequenceReq{}), before: 4},
		{rec: wiretest.Of(group.SequenceResp{}), before: 1},
		{rec: wiretest.Of(group.DeliverBatchReq{}), before: 1},
		{rec: wiretest.Of(group.DeliverBatchResp{})},
	} {
		// The count is tried at the bound of every least element size from
		// 1 to 12 bytes, so each decoder meets the largest count it admits.
		worst := uint64(0)
		for per := 1; per <= 12; per++ {
			frame := []byte{rpc.WireMagic, c.rec.Tag, c.rec.Ver}
			frame = append(frame, make([]byte, c.before)...)
			frame = append(frame, c.lead...)
			frame = rpc.AppendUvarint(frame, uint64(L/per))
			for range L {
				frame = append(frame, 0xff) // a uvarint that never ends
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := c.rec.Decode(frame)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: a crafted frame decoded", c.rec.Name())
			}
			worst = max(worst, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: %d bytes allocated at most, for %d bytes of input", c.rec.Name(), worst, L)
		if worst >= 32*L {
			t.Errorf("%s: decoding %d bytes allocated %d: a count asked for %d bytes per input byte", c.rec.Name(), L, worst, worst/L)
		}
	}
}
