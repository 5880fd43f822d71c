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
		{&ActivateReq{UID: "obj", Class: "Counter", StNodes: []string{"s1", "s2"}}, &ActivateReq{}},
		{&ActivateResp{Seq: 42, Fresh: true, LoadedFrom: "s1"}, &ActivateResp{}},
		{&InvokeReq{UID: "obj", Action: "a1", Method: "incr", Args: []byte{1, 2, 3}, Solo: true}, &InvokeReq{}},
		{&InvokeReq{UID: "obj", Action: "a1", Method: "get", LeaseHolder: "c1", Class: "Counter", StNodes: []string{"s1", "s2"}}, &InvokeReq{}},
		{&InvokeReq{UID: "obj", Action: "a1", Method: "incr", Args: []byte{1}, Solo: true, Class: "Counter", StNodes: []string{"s1"}, Failover: true, Carry: CarryCommit, CheckpointTo: []string{"sv2"}}, &InvokeReq{}},
		{&InvokeResp{Result: []byte("ok"), Modified: true, Batched: true, BatchSize: 5, WaitNanos: -250}, &InvokeResp{}},
		{&InvokeResp{Result: []byte("ok"), Modified: true, Carried: CarryPrepare, Vote: PrepareResp{Dirty: true, NewSeq: 7, PreparedNodes: []string{"s1"}, FailedNodes: []string{"s2"}, BatchSize: 3}}, &InvokeResp{}},
		{&InvokeResp{Result: []byte("ok"), Modified: true, Carried: CarryCommit, VoteCode: CodeCommitUncertain, VoteMsg: "reply lost"}, &InvokeResp{}},
		{&PrepareReq{UID: "obj", Action: "a1", StNodes: []string{"s1"}}, &PrepareReq{}},
		{&PrepareReq{UID: "obj", Action: "a1", StNodes: []string{"s1"}, OnePhase: true, CheckpointTo: []string{"s2"}}, &PrepareReq{}},
		{&PrepareResp{Dirty: true, NewSeq: 7, PreparedNodes: []string{"s1"}, FailedNodes: []string{"s2"}, BatchSize: 3}, &PrepareResp{}},
		{&EndReq{UID: "obj", Action: "a1", CheckpointTo: []string{"s1"}}, &EndReq{}},
		{&EndResp{FailedNodes: []string{"s2"}}, &EndResp{}},
		{&InstallReq{UID: "obj", Class: "Counter", State: []byte{9, 9}, Seq: 3}, &InstallReq{}},
		{&InstallResp{Installed: true}, &InstallResp{}},
		{&LeaseCheckReq{UID: "obj", Action: "a1"}, &LeaseCheckReq{}},
		{&LeaseCheckReq{UID: "obj", Action: "a1", Class: "Counter", StNodes: []string{"s1"}, Failover: true}, &LeaseCheckReq{}},
		{&LeaseCheckResp{Seq: 11}, &LeaseCheckResp{}},
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

// TestWireTagsUnique catches accidental tag reuse inside this package's block.
func TestWireTagsUnique(t *testing.T) {
	types := []rpc.Wire{
		&ActivateReq{}, &ActivateResp{}, &InvokeReq{}, &InvokeResp{},
		&PrepareReq{}, &PrepareResp{}, &EndReq{}, &EndResp{},
		&InstallReq{}, &InstallResp{},
		&LeaseCheckReq{}, &LeaseCheckResp{}, &PassivateReq{}, &PassivateResp{},
		&StatusReq{}, &StatusResp{},
	}
	seen := map[byte]string{}
	for _, w := range types {
		tag, ver := w.WireTag()
		if ver == 0 {
			t.Errorf("%T: version 0 is reserved", w)
		}
		if prev, dup := seen[tag]; dup {
			t.Errorf("tag %#x reused by %T and %s", tag, w, prev)
		}
		seen[tag] = reflect.TypeOf(w).String()
	}
	// Retired tags keep their slots: the records after them do not move.
	if tag, _ := (&LeaseCheckReq{}).WireTag(); tag != 0x2c {
		t.Errorf("LeaseCheckReq moved from tag 0x2c to %#x", tag)
	}
}

// TestWireOlderRequestVersionsRefused: every peer runs the same build, so a
// frame at an older version of a record — invoke request v1 to v4, invoke
// reply and lease check v1 and v2, prepare request v1 — is refused whole,
// never read as the current layout.
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
