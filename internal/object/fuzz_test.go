package object

import (
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
	"repro/internal/transport"
)

// FuzzBinaryInvokeDecode hardens the hottest binary codecs in the system:
// decoding arbitrary bytes as an invoke request (method-less ones
// included) or reply, or as the commit-phase requests and replies — the
// prepare request a carried phase one stands in for among them, one item or
// several — must never panic,
// over-read or over-allocate, and whatever decodes cleanly must survive a
// decode -> re-encode -> decode round trip unchanged. Torn and mutated
// frames (also checked in under testdata/fuzz/FuzzBinaryInvokeDecode) must
// be rejected, never half-accepted.
func FuzzBinaryInvokeDecode(f *testing.F) {
	reqFrame, err := rpc.Encode(&InvokeReq{UID: "obj-1", Action: "act-1", Method: "incr", Args: []byte{1, 2, 3}, Solo: true})
	if err != nil {
		f.Fatal(err)
	}
	respFrame, err := rpc.Encode(&InvokeResp{Result: []byte("r"), Modified: true, Batched: true, BatchSize: 4, WaitNanos: -9})
	if err != nil {
		f.Fatal(err)
	}
	checkReq, err := rpc.Encode(&InvokeReq{UID: "obj-1", Action: "act-1", Class: "counter", StNodes: []transport.Addr{"st1"}, Failover: true})
	if err != nil {
		f.Fatal(err)
	}
	seqResp, err := rpc.Encode(&InvokeResp{Seq: 1 << 33, WaitNanos: 7})
	if err != nil {
		f.Fatal(err)
	}
	carryReq, err := rpc.Encode(&InvokeReq{UID: "obj-1", Action: "act-1", Method: "incr", Args: []byte{1}, Solo: true, Class: "counter", StNodes: []transport.Addr{"st1"}, Failover: true, Carry: CarryCommit, CheckpointTo: []transport.Addr{"sv2"}})
	if err != nil {
		f.Fatal(err)
	}
	carryResp, err := rpc.Encode(&InvokeResp{Result: []byte("r"), Modified: true, Carried: CarryPrepare, Vote: Vote{Dirty: true, NewSeq: 2, PreparedNodes: []transport.Addr{"st1"}, FailedNodes: []transport.Addr{"st2"}, BatchSize: 1}})
	if err != nil {
		f.Fatal(err)
	}
	refusedResp, err := rpc.Encode(&InvokeResp{Result: []byte("r"), Modified: true, Carried: CarryCommit, Vote: Vote{Code: CodeCommitUncertain, Msg: "lost"}})
	if err != nil {
		f.Fatal(err)
	}
	prepareReq, err := rpc.Encode(&PrepareReq{Action: "act-1", Items: []PrepareItem{{UID: "obj-1", StNodes: []transport.Addr{"st1"}, CheckpointTo: []transport.Addr{"sv2"}}}, OnePhase: true})
	if err != nil {
		f.Fatal(err)
	}
	groupReq, err := rpc.Encode(&PrepareReq{Action: "act-1", Items: []PrepareItem{{UID: "obj-1", StNodes: []transport.Addr{"st1", "st2"}}, {UID: "obj-2", StNodes: []transport.Addr{"st2"}}}})
	if err != nil {
		f.Fatal(err)
	}
	groupResp, err := rpc.Encode(&PrepareResp{Votes: []Vote{{Dirty: true, NewSeq: 3, PreparedNodes: []transport.Addr{"st1"}, FailedNodes: []transport.Addr{"st2"}, BatchSize: 1}, {Code: CodeStaleServer, Msg: "stale"}}})
	if err != nil {
		f.Fatal(err)
	}
	endReq, err := rpc.Encode(&EndReq{Action: "act-1", Items: []EndItem{{UID: "obj-1", CheckpointTo: []transport.Addr{"sv2"}}, {UID: "obj-2"}}})
	if err != nil {
		f.Fatal(err)
	}
	endResp, err := rpc.Encode(&EndResp{Results: []EndResult{{FailedNodes: []transport.Addr{"st3"}}, {Code: CodeNotActive, Msg: "gone"}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reqFrame)
	f.Add(respFrame)
	f.Add(checkReq)
	f.Add(seqResp)
	f.Add(carryReq)
	f.Add(carryResp)
	f.Add(refusedResp)
	f.Add(prepareReq)
	f.Add(groupReq)
	f.Add(groupResp)
	f.Add(endReq)
	f.Add(endResp)
	f.Add(groupReq[:len(groupReq)-9]) // torn inside the second item
	f.Add(reqFrame[:len(reqFrame)/2]) // torn mid-body
	f.Add([]byte{})
	f.Add([]byte{rpc.WireMagic})
	f.Add([]byte{rpc.WireMagic, 0x22, 0x00})                 // version 0
	f.Add([]byte{rpc.WireMagic, 0x22, 0x7f})                 // future version
	f.Add(append(reqFrame[:len(reqFrame):len(reqFrame)], 0)) // trailing byte

	f.Add(append(carryReq[:len(carryReq)-7:len(carryReq)-7], 9, 0, 0)) // a carry value no version defines

	f.Fuzz(func(t *testing.T, raw []byte) {
		wiretest.Reencode(t, raw,
			wiretest.Of(InvokeReq{}), wiretest.Of(InvokeResp{}),
			wiretest.Of(PrepareReq{}), wiretest.Of(PrepareResp{}),
			wiretest.Of(EndReq{}), wiretest.Of(EndResp{}))
	})
}
