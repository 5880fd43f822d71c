package object

import (
	"errors"
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
	"repro/internal/transport"
)

// wireCases holds representative populated values of every binary codec in
// this package.
func wireCases() []wiretest.Record {
	return []wiretest.Record{
		wiretest.Of(InvokeReq{UID: "obj", Action: "a1", Method: "incr", Args: []byte{1, 2, 3}, Solo: true}),
		wiretest.Of(InvokeReq{UID: "obj", Action: "a1", Method: "get", LeaseHolder: "c1", Class: "Counter", StNodes: []transport.Addr{"s1", "s2"}}),
		wiretest.Of(InvokeReq{UID: "obj", Action: "a1", Method: "incr", Args: []byte{1}, Solo: true, Class: "Counter", StNodes: []transport.Addr{"s1"}, Failover: true, Carry: CarryCommit, CheckpointTo: []transport.Addr{"sv2"}}),
		wiretest.Of(InvokeReq{UID: "obj", Action: "a1", Class: "Counter", StNodes: []transport.Addr{"s1"}, Failover: true}),
		wiretest.Of(InvokeResp{Result: []byte("ok"), Modified: true, Batched: true, BatchSize: 5, WaitNanos: -250}),
		wiretest.Of(InvokeResp{Seq: 11}),
		wiretest.Of(InvokeResp{Result: []byte("ok"), Seq: 1 << 40, WaitNanos: 3}),
		wiretest.Of(InvokeResp{Result: []byte("ok"), Modified: true, Carried: CarryPrepare, Vote: Vote{Dirty: true, NewSeq: 7, PreparedNodes: []transport.Addr{"s1"}, FailedNodes: []transport.Addr{"s2"}, BatchSize: 3}}),
		wiretest.Of(InvokeResp{Result: []byte("ok"), Modified: true, Carried: CarryCommit, Vote: Vote{Code: CodeCommitUncertain, Msg: "reply lost"}}),
		wiretest.Of(PrepareReq{Action: "a1", Items: []PrepareItem{{UID: "obj", StNodes: []transport.Addr{"s1"}}}}),
		wiretest.Of(PrepareReq{Action: "a1", Items: []PrepareItem{{UID: "obj", StNodes: []transport.Addr{"s1"}, CheckpointTo: []transport.Addr{"s2"}}}, OnePhase: true}),
		wiretest.Of(PrepareReq{Action: "a1", Items: []PrepareItem{{UID: "obj1", StNodes: []transport.Addr{"s1", "s2"}}, {UID: "obj2", StNodes: []transport.Addr{"s2"}}}}),
		wiretest.Of(PrepareReq{Action: "a1"}),
		wiretest.Of(PrepareResp{Votes: []Vote{{Dirty: true, NewSeq: 7, PreparedNodes: []transport.Addr{"s1"}, FailedNodes: []transport.Addr{"s2"}, BatchSize: 3}}}),
		wiretest.Of(PrepareResp{Votes: []Vote{{NewSeq: 4}, {Code: CodeNotActive, Msg: "gone"}, {Dirty: true, NewSeq: 9, PreparedNodes: []transport.Addr{"s1", "s2"}, BatchSize: 1}}}),
		wiretest.Of(EndReq{Action: "a1", Items: []EndItem{{UID: "obj", CheckpointTo: []transport.Addr{"s1"}}}}),
		wiretest.Of(EndReq{Action: "a1", Items: []EndItem{{UID: "obj1"}, {UID: "obj2", CheckpointTo: []transport.Addr{"sv2", "sv3"}}}}),
		wiretest.Of(EndResp{Results: []EndResult{{FailedNodes: []transport.Addr{"s2"}}}}),
		wiretest.Of(EndResp{Results: []EndResult{{}, {Code: CodeCommitUncertain, Msg: "fence interrupted"}, {FailedNodes: []transport.Addr{"s1", "sv2"}}}}),
		wiretest.Of(InstallReq{UID: "obj", Class: "Counter", State: []byte{9, 9}, Seq: 3}),
		wiretest.Of(InstallResp{Installed: true}),
		wiretest.Of(PassivateReq{UID: "obj", Force: true}),
		wiretest.Of(PassivateResp{Passivated: true}),
		wiretest.Of(StatusReq{UID: "obj"}),
		wiretest.Of(StatusResp{Active: true, Seq: 12, Users: 2, Prepared: 1}),
	}
}

// TestWireRoundTrip round-trips every binary codec in this package through
// rpc.Encode/Decode.
func TestWireRoundTrip(t *testing.T) { wiretest.RoundTrip(t, wireCases()...) }

// TestWireTruncatedInput: every proper prefix of a record's encoding is
// refused — a torn record never decodes into a half-filled value.
func TestWireTruncatedInput(t *testing.T) { wiretest.Truncated(t, wireCases()...) }

// TestWireTagsUnique catches accidental tag reuse inside this package's
// block, and the reuse of a retired tag.
func TestWireTagsUnique(t *testing.T) {
	wiretest.TagsUnique(t, wireCases()...)
	retired := map[byte]bool{0x20: true, 0x21: true, 0x2a: true, 0x2b: true, 0x2c: true, 0x2d: true}
	for _, rec := range wireCases() {
		if retired[rec.Tag] {
			t.Errorf("%s uses retired tag %#x", rec.Name(), rec.Tag)
		}
	}
	// Retired tags keep their slots: the records after them do not move.
	if tag, _ := (InvokeReq{}).WireTag(); tag != 0x22 {
		t.Errorf("InvokeReq moved from tag 0x22 to %#x", tag)
	}
	if tag, _ := (InvokeResp{}).WireTag(); tag != 0x23 {
		t.Errorf("InvokeResp moved from tag 0x23 to %#x", tag)
	}
	if tag, _ := (PassivateReq{}).WireTag(); tag != 0x2e {
		t.Errorf("PassivateReq moved from tag 0x2e to %#x", tag)
	}
}

// TestWireOlderRequestVersionsRefused: every peer runs the same build, so a
// frame at an older version of a record — invoke request v1 to v4, invoke
// reply v1 to v4, prepare request v1 and v2, prepare reply, end request and
// end reply v1 — is refused whole, never read as the current layout.
func TestWireOlderRequestVersionsRefused(t *testing.T) {
	for _, rec := range wireCases() {
		data := rec.Encode()
		for ver := byte(1); ver < rec.Ver; ver++ {
			old := append([]byte(nil), data...)
			old[2] = ver
			if _, err := rec.Decode(old); !errors.Is(err, rpc.ErrWire) {
				t.Errorf("%s v%d (current v%d): err = %v, want ErrWire", rec.Name(), ver, rec.Ver, err)
			}
		}
	}
}
