package group

import (
	"testing"

	"repro/internal/rpc/wiretest"
)

// wireCases holds a representative populated value of every binary codec
// in this package.
func wireCases() []wiretest.Record {
	return []wiretest.Record{
		wiretest.Of(SequenceReq{
			Group: "g1", MsgID: "m1", Kind: "invoke",
			Payload: []byte{1, 2}, Members: []string{"n1", "n2"},
		}),
		wiretest.Of(SequenceResp{
			Seq: 4,
			Replies: []Reply{
				{Member: "n1", Payload: []byte{7}},
				{Member: "n2", Err: "boom"},
			},
			Failed: []string{"n3"},
		}),
		wiretest.Of(DeliverBatchReq{
			Group: "g1",
			Items: []BatchItem{
				{MsgID: "m3", Kind: "invoke", Payload: []byte{1}, Seq: 6},
				{MsgID: "m4", Kind: "install", Seq: 7},
			},
			Stable: 5,
		}),
		wiretest.Of(DeliverBatchResp{
			Results: []BatchResult{{Payload: []byte{2}}, {Err: "nope"}},
		}),
	}
}

// TestWireRoundTrip round-trips every binary codec in this package through
// rpc.Encode/Decode with representative populated values.
func TestWireRoundTrip(t *testing.T) { wiretest.RoundTrip(t, wireCases()...) }

// TestWireTagsUnique catches accidental tag reuse inside this package's block.
func TestWireTagsUnique(t *testing.T) { wiretest.TagsUnique(t, wireCases()...) }
