package object

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/rpc"
)

// wireCases holds representative populated values of every binary codec in
// this package, each beside an empty value to decode into.
func wireCases() []struct{ in, out rpc.Wire } {
	return []struct{ in, out rpc.Wire }{
		{&InvokeReq{UID: "obj", Action: "a1", Method: "incr", Args: []byte{1, 2, 3}, Solo: true}, &InvokeReq{}},
		{&InvokeReq{UID: "obj", Action: "a1", Method: "get", LeaseHolder: "c1", Class: "Counter", StNodes: []string{"s1", "s2"}}, &InvokeReq{}},
		{&InvokeReq{UID: "obj", Action: "a1", Method: "incr", Args: []byte{1}, Solo: true, Class: "Counter", StNodes: []string{"s1"}, Failover: true, Carry: CarryCommit, CheckpointTo: []string{"sv2"}}, &InvokeReq{}},
		{&InvokeReq{UID: "obj", Action: "a1", Class: "Counter", StNodes: []string{"s1"}, Failover: true}, &InvokeReq{}},
		{&InvokeResp{Result: []byte("ok"), Modified: true, Batched: true, BatchSize: 5, WaitNanos: -250}, &InvokeResp{}},
		{&InvokeResp{Seq: 11}, &InvokeResp{}},
		{&InvokeResp{Result: []byte("ok"), Seq: 1 << 40, WaitNanos: 3}, &InvokeResp{}},
		{&InvokeResp{Result: []byte("ok"), Modified: true, Carried: CarryPrepare, Vote: Vote{Dirty: true, NewSeq: 7, PreparedNodes: []string{"s1"}, FailedNodes: []string{"s2"}, BatchSize: 3}}, &InvokeResp{}},
		{&InvokeResp{Result: []byte("ok"), Modified: true, Carried: CarryCommit, Vote: Vote{Code: CodeCommitUncertain, Msg: "reply lost"}}, &InvokeResp{}},
		{&PrepareReq{Action: "a1", Items: []PrepareItem{{UID: "obj", StNodes: []string{"s1"}}}}, &PrepareReq{}},
		{&PrepareReq{Action: "a1", Items: []PrepareItem{{UID: "obj", StNodes: []string{"s1"}, CheckpointTo: []string{"s2"}}}, OnePhase: true}, &PrepareReq{}},
		{&PrepareReq{Action: "a1", Items: []PrepareItem{{UID: "obj1", StNodes: []string{"s1", "s2"}}, {UID: "obj2", StNodes: []string{"s2"}}}}, &PrepareReq{}},
		{&PrepareReq{Action: "a1"}, &PrepareReq{}},
		{&PrepareResp{Votes: []Vote{{Dirty: true, NewSeq: 7, PreparedNodes: []string{"s1"}, FailedNodes: []string{"s2"}, BatchSize: 3}}}, &PrepareResp{}},
		{&PrepareResp{Votes: []Vote{{NewSeq: 4}, {Code: CodeNotActive, Msg: "gone"}, {Dirty: true, NewSeq: 9, PreparedNodes: []string{"s1", "s2"}, BatchSize: 1}}}, &PrepareResp{}},
		{&EndReq{Action: "a1", Items: []EndItem{{UID: "obj", CheckpointTo: []string{"s1"}}}}, &EndReq{}},
		{&EndReq{Action: "a1", Items: []EndItem{{UID: "obj1"}, {UID: "obj2", CheckpointTo: []string{"sv2", "sv3"}}}}, &EndReq{}},
		{&EndResp{Results: []EndResult{{FailedNodes: []string{"s2"}}}}, &EndResp{}},
		{&EndResp{Results: []EndResult{{}, {Code: CodeCommitUncertain, Msg: "fence interrupted"}, {FailedNodes: []string{"s1", "sv2"}}}}, &EndResp{}},
		{&InstallReq{UID: "obj", Class: "Counter", State: []byte{9, 9}, Seq: 3}, &InstallReq{}},
		{&InstallResp{Installed: true}, &InstallResp{}},
		{&PassivateReq{UID: "obj", Force: true}, &PassivateReq{}},
		{&PassivateResp{Passivated: true}, &PassivateResp{}},
		{&StatusReq{UID: "obj"}, &StatusReq{}},
		{&StatusResp{Active: true, Seq: 12, Users: 2, Prepared: 1}, &StatusResp{}},
	}
}

// TestWireRoundTrip round-trips every binary codec in this package through
// rpc.Encode/Decode.
func TestWireRoundTrip(t *testing.T) {
	for _, c := range wireCases() {
		data, err := rpc.Encode(c.in)
		if err != nil {
			t.Fatalf("%T: encode: %v", c.in, err)
		}
		if data[0] != rpc.WireMagic {
			t.Fatalf("%T: not binary-coded (first byte %#x)", c.in, data[0])
		}
		if err := rpc.Decode(data, c.out); err != nil {
			t.Fatalf("%T: decode: %v", c.in, err)
		}
		if !reflect.DeepEqual(c.in, c.out) {
			t.Errorf("%T mismatch:\n in: %+v\nout: %+v", c.in, c.in, c.out)
		}
	}
}

// TestWireTruncatedInput: every proper prefix of a record's encoding is
// refused — a torn record never decodes into a half-filled value.
func TestWireTruncatedInput(t *testing.T) {
	for _, c := range wireCases() {
		data, err := rpc.Encode(c.in)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			out := reflect.New(reflect.TypeOf(c.in).Elem()).Interface().(rpc.Wire)
			if err := rpc.Decode(data[:cut], out); err == nil {
				t.Errorf("%T: %d of %d bytes decoded without error", c.in, cut, len(data))
			}
		}
	}
}

// TestWireTagsUnique catches accidental tag reuse inside this package's
// block, and the reuse of a retired tag.
func TestWireTagsUnique(t *testing.T) {
	retired := map[byte]bool{0x20: true, 0x21: true, 0x2a: true, 0x2b: true, 0x2c: true, 0x2d: true}
	seen := map[byte]string{}
	for _, c := range wireCases() {
		w := c.in
		tag, ver := w.WireTag()
		if ver == 0 {
			t.Errorf("%T: version 0 is reserved", w)
		}
		if prev, dup := seen[tag]; dup && prev != reflect.TypeOf(w).String() {
			t.Errorf("tag %#x reused by %T and %s", tag, w, prev)
		}
		if retired[tag] {
			t.Errorf("%T uses retired tag %#x", w, tag)
		}
		seen[tag] = reflect.TypeOf(w).String()
	}
	// Retired tags keep their slots: the records after them do not move.
	if tag, _ := (&InvokeReq{}).WireTag(); tag != 0x22 {
		t.Errorf("InvokeReq moved from tag 0x22 to %#x", tag)
	}
	if tag, _ := (&InvokeResp{}).WireTag(); tag != 0x23 {
		t.Errorf("InvokeResp moved from tag 0x23 to %#x", tag)
	}
	if tag, _ := (&PassivateReq{}).WireTag(); tag != 0x2e {
		t.Errorf("PassivateReq moved from tag 0x2e to %#x", tag)
	}
}

// TestWireOlderRequestVersionsRefused: every peer runs the same build, so a
// frame at an older version of a record — invoke request v1 to v4, invoke
// reply v1 to v4, prepare request v1 and v2, prepare reply, end request and
// end reply v1 — is refused whole, never read as the current layout.
func TestWireOlderRequestVersionsRefused(t *testing.T) {
	for _, c := range wireCases() {
		data, err := rpc.Encode(c.in)
		if err != nil {
			t.Fatal(err)
		}
		_, cur := c.in.WireTag()
		for ver := byte(1); ver < cur; ver++ {
			old := append([]byte(nil), data...)
			old[2] = ver
			out := reflect.New(reflect.TypeOf(c.in).Elem()).Interface().(rpc.Wire)
			if err := rpc.Decode(old, out); !errors.Is(err, rpc.ErrWire) {
				t.Errorf("%T v%d (current v%d): err = %v, want ErrWire", c.in, ver, cur, err)
			}
		}
	}
}
