package core

import (
	"reflect"
	"testing"

	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

// FuzzCoreBatchDecode hardens the group-view database's batch records,
// which every bind, use-list adjustment, view read and action end sends:
// decoding arbitrary bytes as a batch request or reply must never panic,
// over-read or over-allocate, and whatever decodes cleanly must survive a
// decode -> re-encode -> decode round trip unchanged. Torn, older-version
// and mutated frames are also checked in under
// testdata/fuzz/FuzzCoreBatchDecode: batch-req-v3 is a current request with
// an op of the message's own action, and the version-2 batch-req and the
// version-1 frames are inputs the decoder must refuse.
func FuzzCoreBatchDecode(f *testing.F) {
	id := uid.UID{Origin: "obj", Epoch: 1, Seq: 7}
	for _, w := range []rpc.Wire{
		&BatchReq{Ops: []Op{
			BindOp("", id, "c1", 1, false),
			RegisterOp("a1", id, "Counter", []transport.Addr{"sv1"}, []transport.Addr{"st1", "st2"}),
			ExcludeOp("a1", []ExcludePair{{UID: id, Hosts: []transport.Addr{"st2"}}}, true),
			EndActionOp("a1", true),
		}},
		&BatchResp{Results: []OpResult{{
			Nodes: []transport.Addr{"sv1"},
			Class: "Counter",
			Use:   map[transport.Addr]map[transport.Addr]int{"sv1": {"c1": 2}},
			Hosts: []transport.Addr{"sv1"},
		}}},
	} {
		raw, err := rpc.Encode(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{rpc.WireMagic, wireTagBatchReq, 3, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, mk := range []func() rpc.Wire{
			func() rpc.Wire { return &BatchReq{} },
			func() rpc.Wire { return &BatchResp{} },
		} {
			v := mk()
			if rpc.Decode(raw, v) != nil {
				continue
			}
			re, err := rpc.Encode(v)
			if err != nil {
				t.Fatalf("%T: re-encode of an accepted frame: %v", v, err)
			}
			v2 := mk()
			if err := rpc.Decode(re, v2); err != nil {
				t.Fatalf("%T: re-encoded frame undecodable: %v", v, err)
			}
			if !reflect.DeepEqual(v, v2) {
				t.Fatalf("%T: round trip changed content:\n 1: %+v\n 2: %+v", v, v, v2)
			}
		}
	})
}
