package core

import (
	"errors"
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
	"repro/internal/transport"
	"repro/internal/uid"
)

// wireCases holds one representative populated value of every binary codec
// in this package.
func wireCases() []wiretest.Record {
	id := uid.UID{Origin: "obj", Epoch: 1, Seq: 7}
	return []wiretest.Record{
		wiretest.Of(BatchReq{Ops: []Op{
			RegisterOp("a1", id, "Counter", []transport.Addr{"n1"}, []transport.Addr{"s1", "s2"}),
			DeregisterOp("a1", id, "db2"),
			GetServerOp("a1", id, true, true),
			InsertOp("a2", id, "n3"),
			RemoveOp("a2", id, "n3"),
			IncrementOp("a3", id, "c1", []transport.Addr{"n1", "n2"}),
			DecrementOp("a3", id, "c1", []transport.Addr{"n1"}),
			GetViewOp("top", id),
			IncludeOp("rec", id, "s3"),
			ExcludeOp("top", []ExcludePair{{UID: id, Hosts: []transport.Addr{"s1"}}, {UID: uid.UID{Origin: "o2", Epoch: 2, Seq: 1}}}, true),
			EndActionOp("a3", true),
			BindOp("a4", id, "c1", 2, true),
			DecrementOp("", id, "c1", []transport.Addr{"n2"}),
			RepairOp("", id, "c1", []transport.Addr{"n2"}, []transport.Addr{"n1", "n3"}),
		}}),
		wiretest.Of(BatchResp{Results: []OpResult{
			{Nodes: []transport.Addr{"n1", "n2"}, Use: map[transport.Addr]map[transport.Addr]int{"n1": {"c1": 2, "c2": -1}, "n2": {}}},
			{Nodes: []transport.Addr{"s1"}, Class: "Counter"},
			{Nodes: []transport.Addr{"n1", "n2"}, Use: map[transport.Addr]map[transport.Addr]int{"n1": {"c1": 1}}, Hosts: []transport.Addr{"n1"}},
			{},
		}}),
		wiretest.Of(EntryRecord{Nodes: []transport.Addr{"n1", "n2"}, Use: []UseCount{{"n1", "c1", 2}, {"n2", "c9", 1}}}),
		wiretest.Of(EntryRecord{Nodes: []transport.Addr{"s1"}, Class: "Counter"}),
		wiretest.Of(EntryRecord{Deleted: true}),
		wiretest.Of(NameGetReq{UID: id}),
		wiretest.Of(NameGetResp{Nodes: []transport.Addr{"sv1", "sv2"}}),
		wiretest.Of(NameUpdateReq{UID: id, Host: "sv3"}),
		wiretest.Of(NameUpdateReq{UID: id, Nodes: []transport.Addr{"sv1"}}),
	}
}

// TestWireRoundTrip round-trips every binary codec in this package through
// rpc.Encode/Decode.
func TestWireRoundTrip(t *testing.T) { wiretest.RoundTrip(t, wireCases()...) }

// TestWireTruncatedInput: every proper prefix of a record's encoding is
// refused — a torn record never decodes into a half-filled value.
func TestWireTruncatedInput(t *testing.T) { wiretest.Truncated(t, wireCases()...) }

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
	if _, err := w.db.batch(t.Context(), "c1", BatchReq{Ops: []Op{{Kind: opKindEnd, Action: "a"}}}); rpc.CodeOf(err) != rpc.CodeInternal {
		t.Errorf("exec of an unknown kind = %v, want %s", err, rpc.CodeInternal)
	}
}

// TestWireTagsUnique catches accidental tag reuse inside this package's block.
func TestWireTagsUnique(t *testing.T) { wiretest.TagsUnique(t, wireCases()...) }

// TestBatchVersion1Refused: a version-1 batch frame — no degree per
// operation, no counted hosts per result — is refused whole, never read as
// the current layout: every peer runs the same build. With one operation
// (or result) whose newer field is zero, the older frame is the newer one
// less its last byte. So is a version-2 request, whose layout is the
// current one but whose peer would run an op of the message's own action
// under the empty action name.
func TestBatchVersion1Refused(t *testing.T) {
	for _, rec := range []wiretest.Record{
		wiretest.Of(BatchReq{Ops: []Op{EndActionOp("a", true)}}),
		wiretest.Of(BatchResp{Results: []OpResult{{Nodes: []transport.Addr{"s1"}, Class: "Counter"}}}),
	} {
		data := rec.Encode()
		v1 := append([]byte(nil), data[:len(data)-1]...)
		v1[2] = 1
		if _, err := rec.Decode(v1); !errors.Is(err, rpc.ErrWire) {
			t.Fatalf("%s v1: err = %v, want ErrWire", rec.Name(), err)
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
