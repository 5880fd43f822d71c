package core

import (
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
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
	for _, rec := range []wiretest.Record{
		wiretest.Of(BatchReq{Ops: []Op{
			BindOp("", id, "c1", 1, false),
			RegisterOp("a1", id, "Counter", []transport.Addr{"sv1"}, []transport.Addr{"st1", "st2"}),
			ExcludeOp("a1", []ExcludePair{{UID: id, Hosts: []transport.Addr{"st2"}}}, true),
			EndActionOp("a1", true),
		}}),
		wiretest.Of(BatchResp{Results: []OpResult{{
			Nodes: []transport.Addr{"sv1"},
			Class: "Counter",
			Use:   map[transport.Addr]map[transport.Addr]int{"sv1": {"c1": 2}},
			Hosts: []transport.Addr{"sv1"},
		}}}),
	} {
		raw := rec.Encode()
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{rpc.WireMagic, wireTagBatchReq, 3, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		wiretest.Reencode(t, raw, wiretest.Of(BatchReq{}), wiretest.Of(BatchResp{}))
	})
}
