package buildcheck

import (
	"time"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/lease"
	"repro/internal/object"
	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// wireSamples is a filled value of every record in the module, one per
// type, in tag order. A map field holds one key per level: a map encodes
// in iteration order, and the samples' bytes are pinned.
func wireSamples() []wiretest.Record {
	id := uid.UID{Origin: "obj", Epoch: 1, Seq: 7}
	return []wiretest.Record{
		wiretest.Of(core.BatchReq{Ops: []core.Op{
			core.BindOp("", id, "c1", 2, true),
			core.RegisterOp("a1", id, "Counter", []transport.Addr{"sv1"}, []transport.Addr{"st1", "st2"}),
			core.ExcludeOp("a1", []core.ExcludePair{{UID: id, Hosts: []transport.Addr{"st2"}}}, true),
			core.RemoveOp("a2", id, "sv3"),
			core.EndActionOp("a1", true),
		}}),
		wiretest.Of(core.BatchResp{Results: []core.OpResult{
			{Nodes: []transport.Addr{"sv1"}, Class: "Counter", Use: map[transport.Addr]map[transport.Addr]int{"sv1": {"c1": -2}}, Hosts: []transport.Addr{"sv1"}},
			{Nodes: []transport.Addr{"st1", "st2"}},
		}}),
		wiretest.Of(core.EntryRecord{Deleted: true, Nodes: []transport.Addr{"n1", "n2"}, Class: "Counter", Use: []core.UseCount{{Host: "n1", Client: "c1", N: 2}, {Host: "n2", Client: "c9", N: 1}}}),
		wiretest.Of(core.NameGetReq{UID: id}),
		wiretest.Of(core.NameGetResp{Nodes: []transport.Addr{"sv1", "sv2"}}),
		wiretest.Of(core.NameUpdateReq{UID: id, Host: "sv3", Nodes: []transport.Addr{"sv1"}}),
		wiretest.Of(object.InvokeReq{
			UID: "obj", Action: "a1", Method: "incr", Args: []byte{1, 2}, Solo: true, LeaseHolder: "c1", Class: "Counter",
			StNodes: []transport.Addr{"st1", "st2"}, Carry: object.CarryCommit, CheckpointTo: []transport.Addr{"sv2"}, Failover: true,
		}),
		wiretest.Of(object.InvokeResp{
			Result: []byte("ok"), Modified: true, Seq: 1 << 40, Batched: true, BatchSize: 5, WaitNanos: -250,
			Lease:   &object.LeaseGrant{Class: "Counter", State: []byte{9}, Seq: 3, TTL: 100 * time.Millisecond},
			Carried: object.CarryPrepare,
			Vote:    object.Vote{Dirty: true, NewSeq: 7, PreparedNodes: []transport.Addr{"st1"}, FailedNodes: []transport.Addr{"st2"}, BatchSize: 3, Code: "c", Msg: "m"},
		}),
		wiretest.Of(object.PrepareReq{Action: "a1", OnePhase: true, Items: []object.PrepareItem{
			{UID: "obj1", StNodes: []transport.Addr{"st1", "st2"}, CheckpointTo: []transport.Addr{"sv2"}},
			{UID: "obj2", StNodes: []transport.Addr{"st2"}},
		}}),
		wiretest.Of(object.PrepareResp{Votes: []object.Vote{
			{Dirty: true, NewSeq: 9, PreparedNodes: []transport.Addr{"st1", "st2"}, FailedNodes: []transport.Addr{"st3"}, BatchSize: 1},
			{Code: object.CodeNotActive, Msg: "gone"},
		}}),
		wiretest.Of(object.EndReq{Action: "a1", Items: []object.EndItem{{UID: "obj1"}, {UID: "obj2", CheckpointTo: []transport.Addr{"sv2", "sv3"}}}}),
		wiretest.Of(object.EndResp{Results: []object.EndResult{{FailedNodes: []transport.Addr{"st2"}}, {Code: object.CodeCommitUncertain, Msg: "fence interrupted"}}}),
		wiretest.Of(object.InstallReq{UID: "obj", Class: "Counter", State: []byte{9, 9}, Seq: 3}),
		wiretest.Of(object.InstallResp{Installed: true}),
		wiretest.Of(object.PassivateReq{UID: "obj", Force: true}),
		wiretest.Of(object.PassivateResp{Passivated: true}),
		wiretest.Of(object.StatusReq{UID: "obj"}),
		wiretest.Of(object.StatusResp{Active: true, Seq: 12, Users: 2, Prepared: 1}),
		wiretest.Of(store.ReadReq{UID: "obj"}),
		wiretest.Of(store.ReadResp{Data: []byte{1, 2}, Seq: 9, TxID: "tx-1", Pinned: true}),
		wiretest.Of(store.PutReq{UID: "obj", Data: []byte{3}, Seq: 10}),
		wiretest.Of(store.PrepareReq{Tx: "tx-2", OnePhase: true, Writes: []store.WriteRec{{UID: "o1", Data: []byte{4, 5}, Seq: 12}, {UID: "o2", Seq: 13}}}),
		wiretest.Of(store.TxReq{Tx: "tx-3"}),
		wiretest.Of(store.ResolveResp{Applied: []string{"tx-4"}, Aborted: []string{"tx-5", "tx-6"}}),
		wiretest.Of(group.SequenceReq{Group: "g1", MsgID: "m1", Kind: "invoke", Payload: []byte{1, 2}, Members: []string{"n1", "n2"}}),
		wiretest.Of(group.SequenceResp{Seq: 4, Replies: []group.Reply{{Member: "n1", Payload: []byte{7}}, {Member: "n2", Err: "boom"}}, Failed: []string{"n3"}}),
		wiretest.Of(group.DeliverBatchReq{Group: "g1", Items: []group.BatchItem{{MsgID: "m3", Kind: "invoke", Payload: []byte{1}, Seq: 6}, {MsgID: "m4", Kind: "install", Seq: 7}}, Stable: 5}),
		wiretest.Of(group.DeliverBatchResp{Results: []group.BatchResult{{Payload: []byte{2}}, {Err: "nope"}}}),
		wiretest.Of(lease.Inval{UID: "obj", Seq: 8, NewSeq: 9, State: []byte{4, 2}}),
		wiretest.Of(rpc.Empty{}),
		wiretest.Of(action.LookupReq{Tx: "c1:1:42"}),
		wiretest.Of(action.LookupResp{Outcome: store.OutcomeCommitted}),
	}
}
