package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

// wireCases holds one representative populated value of every binary codec
// in this package, beside an empty value to decode into.
func wireCases() []struct{ in, out rpc.Wire } {
	id := uid.UID{Origin: "obj", Epoch: 1, Seq: 7}
	return []struct{ in, out rpc.Wire }{
		{&BatchReq{Ops: []Op{
			RegisterOp("a1", id, "Counter", []transport.Addr{"n1"}, []transport.Addr{"s1", "s2"}),
			DeregisterOp("a1", id, "db2"),
			GetServerOp("a1", id, true, true),
			InsertOp("a2", id, "n3"),
			RemoveOp("a2", id, "n3", true),
			IncrementOp("a3", id, "c1", []transport.Addr{"n1", "n2"}),
			DecrementOp("a3", id, "c1", []transport.Addr{"n1"}),
			GetViewOp("top", id),
			IncludeOp("rec", id, "s3"),
			ExcludeOp("top", []ExcludePair{{UID: id, Hosts: []transport.Addr{"s1"}}, {UID: uid.UID{Origin: "o2", Epoch: 2, Seq: 1}}}, true),
			EndActionOp("a3", true),
			BindOp("a4", id, "c1", 2, true),
			DecrementOp("", id, "c1", []transport.Addr{"n2"}),
		}}, &BatchReq{}},
		{&BatchResp{Results: []OpResult{
			{Nodes: []transport.Addr{"n1", "n2"}, Use: map[transport.Addr]map[transport.Addr]int{"n1": {"c1": 2, "c2": -1}, "n2": {}}},
			{Nodes: []transport.Addr{"s1"}, Class: "Counter"},
			{Nodes: []transport.Addr{"n1", "n2"}, Use: map[transport.Addr]map[transport.Addr]int{"n1": {"c1": 1}}, Hosts: []transport.Addr{"n1"}},
			{},
		}}, &BatchResp{}},
		{&entryRecord{Nodes: []transport.Addr{"n1", "n2"}, Use: []useCount{{"n1", "c1", 2}, {"n2", "c9", 1}}}, &entryRecord{}},
		{&entryRecord{Nodes: []transport.Addr{"s1"}, Class: "Counter"}, &entryRecord{}},
		{&entryRecord{Deleted: true}, &entryRecord{}},
		{&NameGetReq{UID: id}, &NameGetReq{}},
		{&NameGetResp{Nodes: []transport.Addr{"sv1", "sv2"}}, &NameGetResp{}},
		{&NameUpdateReq{UID: id, Host: "sv3"}, &NameUpdateReq{}},
		{&NameUpdateReq{UID: id, Nodes: []transport.Addr{"sv1"}}, &NameUpdateReq{}},
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

// TestBatchUnknownOp: a request carrying an operation kind outside the
// known range is refused whole, by the codec and — should a kind slip
// past it — by the dispatcher.
func TestBatchUnknownOp(t *testing.T) {
	for _, kind := range []OpKind{0, opKindEnd, 0x7f} {
		data, err := rpc.Encode(&BatchReq{Ops: []Op{EndActionOp("a", true), {Kind: kind, Action: "a"}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := rpc.Decode(data, &BatchReq{}); !errors.Is(err, rpc.ErrWire) {
			t.Errorf("kind %d: decode error = %v, want ErrWire", kind, err)
		}
	}
	w := newWorld(t, 1, 1, 1)
	if _, err := w.db.exec(t.Context(), &dbAction{name: "a", from: "c1"}, &Op{Kind: opKindEnd}); rpc.CodeOf(err) != rpc.CodeInternal {
		t.Errorf("exec of an unknown kind = %v, want %s", err, rpc.CodeInternal)
	}
}

// TestWireTagsUnique catches accidental tag reuse inside this package's block.
func TestWireTagsUnique(t *testing.T) {
	seen := map[byte]string{}
	for _, c := range wireCases() {
		tag, ver := c.in.WireTag()
		if ver == 0 {
			t.Errorf("%T: version 0 is reserved", c.in)
		}
		name := reflect.TypeOf(c.in).String()
		if prev, dup := seen[tag]; dup && prev != name {
			t.Errorf("tag %#x reused by %s and %s", tag, name, prev)
		}
		seen[tag] = name
	}
}

// TestBatchVersion1Refused: a version-1 batch frame — no degree per
// operation, no counted hosts per result — is refused whole, never read as
// the current layout: every peer runs the same build. With one operation
// (or result) whose newer field is zero, the older frame is the newer one
// less its last byte. So is a version-2 request, whose layout is the
// current one but whose peer would run an op of the message's own action
// under the empty action name.
func TestBatchVersion1Refused(t *testing.T) {
	for _, c := range []struct{ in, out rpc.Wire }{
		{&BatchReq{Ops: []Op{EndActionOp("a", true)}}, &BatchReq{}},
		{&BatchResp{Results: []OpResult{{Nodes: []transport.Addr{"s1"}, Class: "Counter"}}}, &BatchResp{}},
	} {
		data, err := rpc.Encode(c.in)
		if err != nil {
			t.Fatal(err)
		}
		v1 := append([]byte(nil), data[:len(data)-1]...)
		v1[2] = 1
		if err := rpc.Decode(v1, c.out); !errors.Is(err, rpc.ErrWire) {
			t.Fatalf("%T v1: err = %v, want ErrWire", c.in, err)
		}
	}
	data, err := rpc.Encode(&BatchReq{Ops: []Op{GetViewOp("", uid.UID{Origin: "obj", Epoch: 1, Seq: 1})}})
	if err != nil {
		t.Fatal(err)
	}
	data[2] = 2
	if err := rpc.Decode(data, &BatchReq{}); !errors.Is(err, rpc.ErrWire) {
		t.Fatalf("BatchReq v2: err = %v, want ErrWire", err)
	}
}
