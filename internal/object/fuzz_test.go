package object

import (
	"reflect"
	"testing"

	"repro/internal/rpc"
)

// FuzzBinaryInvokeDecode hardens the hottest binary codecs in the system:
// decoding arbitrary bytes as an invoke request or reply must never panic,
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
	carryReq, err := rpc.Encode(&InvokeReq{UID: "obj-1", Action: "act-1", Method: "incr", Args: []byte{1}, Solo: true, Class: "counter", StNodes: []string{"st1"}, Failover: true, Carry: CarryCommit, CheckpointTo: []string{"sv2"}})
	if err != nil {
		f.Fatal(err)
	}
	carryResp, err := rpc.Encode(&InvokeResp{Result: []byte("r"), Modified: true, Carried: CarryPrepare, Vote: PrepareResp{Dirty: true, NewSeq: 2, PreparedNodes: []string{"st1"}, FailedNodes: []string{"st2"}, BatchSize: 1}})
	if err != nil {
		f.Fatal(err)
	}
	refusedResp, err := rpc.Encode(&InvokeResp{Result: []byte("r"), Modified: true, Carried: CarryCommit, VoteCode: CodeCommitUncertain, VoteMsg: "lost"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reqFrame)
	f.Add(respFrame)
	f.Add(carryReq)
	f.Add(carryResp)
	f.Add(refusedResp)
	f.Add(reqFrame[:len(reqFrame)/2]) // torn mid-body
	f.Add([]byte{})
	f.Add([]byte{rpc.WireMagic})
	f.Add([]byte{rpc.WireMagic, 0x22, 0x00})                 // version 0
	f.Add([]byte{rpc.WireMagic, 0x22, 0x7f})                 // future version
	f.Add(append(reqFrame[:len(reqFrame):len(reqFrame)], 0)) // trailing byte

	f.Add(append(carryReq[:len(carryReq)-7:len(carryReq)-7], 9, 0, 0)) // a carry value no version defines

	f.Fuzz(func(t *testing.T, raw []byte) {
		var req InvokeReq
		if err := rpc.Decode(raw, &req); err == nil {
			re, err := rpc.Encode(&req)
			if err != nil {
				t.Fatalf("re-encode accepted request: %v", err)
			}
			var req2 InvokeReq
			if err := rpc.Decode(re, &req2); err != nil {
				t.Fatalf("re-encoded request undecodable: %v", err)
			}
			if !reflect.DeepEqual(&req, &req2) {
				t.Fatalf("request round trip changed content:\n 1: %+v\n 2: %+v", req, req2)
			}
		}
		var resp InvokeResp
		if err := rpc.Decode(raw, &resp); err == nil {
			re, err := rpc.Encode(&resp)
			if err != nil {
				t.Fatalf("re-encode accepted reply: %v", err)
			}
			var resp2 InvokeResp
			if err := rpc.Decode(re, &resp2); err != nil {
				t.Fatalf("re-encoded reply undecodable: %v", err)
			}
			if !reflect.DeepEqual(&resp, &resp2) {
				t.Fatalf("reply round trip changed content:\n 1: %+v\n 2: %+v", resp, resp2)
			}
		}
	})
}
