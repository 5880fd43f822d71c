package object

import (
	"fmt"
	"time"

	"repro/internal/rpc"
)

// Binary codecs (rpc.Wire) for the object-server wire records — the
// invoke request/reply and the 2PC prepare/commit/abort messages are the
// hottest payloads in the system. Tags live in the 0x20–0x3f block of the
// registry in internal/rpc/doc.go, beside the passivation and status
// records a move's lease fence and the checkers send. The invoke request is
// at version 5, the invoke reply at version 5 (the carried vote is a Vote,
// its refusal inside), the prepare request at version 3 and its reply and
// the end request and reply at version 2 (a commit phase names every object
// of the action the server holds, and answers each); everything else is at
// version 1. Every peer runs the same
// build, so only a record's current version decodes: a change to a record's
// fields bumps its version.
const (
	_ byte = 0x20 + iota // 0x20 and 0x21: the activation request and reply,
	_                    // retired when activation became a method-less invoke
	wireTagInvokeReq
	wireTagInvokeResp
	wireTagPrepareReq
	wireTagPrepareResp
	wireTagEndReq
	wireTagEndResp
	wireTagInstallReq
	wireTagInstallResp
	_ // 0x2a and 0x2b: the combined prepare+commit request and reply,
	_ // retired when it became PrepareReq.OnePhase
	_ // 0x2c and 0x2d: the lease check request and reply, retired when
	_ // the check became a method-less invoke
	wireTagPassivateReq
	wireTagPassivateResp
	wireTagStatusReq
	wireTagStatusResp
)

// InvokeReq

// WireTag implements rpc.Wire.
func (InvokeReq) WireTag() (byte, byte) { return wireTagInvokeReq, 5 }

// WireSizeHint implements rpc.Wire.
func (q InvokeReq) WireSizeHint() int {
	n := len(q.UID) + len(q.Action) + len(q.Method) + len(q.Args) + len(q.LeaseHolder) + len(q.Class) + 28
	return n + rpc.AddrsSize(q.StNodes) + rpc.AddrsSize(q.CheckpointTo)
}

// AppendWire implements rpc.Wire.
func (q InvokeReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.UID)
	dst = rpc.AppendString(dst, q.Action)
	dst = rpc.AppendString(dst, q.Method)
	dst = rpc.AppendBytes(dst, q.Args)
	dst = rpc.AppendBool(dst, q.Solo)
	dst = rpc.AppendString(dst, q.LeaseHolder)
	dst = rpc.AppendString(dst, q.Class)
	dst = rpc.AppendAddrs(dst, q.StNodes)
	dst = rpc.AppendUvarint(dst, uint64(q.Carry))
	dst = rpc.AppendAddrs(dst, q.CheckpointTo)
	return rpc.AppendBool(dst, q.Failover)
}

// ParseWire implements rpc.Wire.
func (InvokeReq) ParseWire(_ byte, r *rpc.WireReader) (q InvokeReq, err error) {
	q.UID = r.String()
	q.Action = r.String()
	q.Method = r.String()
	q.Args = r.Bytes()
	q.Solo = r.Bool()
	q.LeaseHolder = r.String()
	q.Class = r.String()
	q.StNodes = r.Addrs()
	if q.Carry, err = readCarry(r); err != nil {
		return q, err
	}
	q.CheckpointTo = r.Addrs()
	q.Failover = r.Bool()
	return q, nil
}

// readCarry reads a Carry value, refusing the ones this version does not
// define.
func readCarry(r *rpc.WireReader) (Carry, error) {
	c := r.Uvarint()
	if c > uint64(CarryCommit) {
		return CarryNone, fmt.Errorf("%w: carry %d", rpc.ErrWire, c)
	}
	return Carry(c), nil
}

// InvokeResp

// WireTag implements rpc.Wire.
func (InvokeResp) WireTag() (byte, byte) { return wireTagInvokeResp, 5 }

// WireSizeHint implements rpc.Wire.
func (p InvokeResp) WireSizeHint() int {
	n := len(p.Result) + 42
	if p.Lease != nil {
		n += len(p.Lease.Class) + len(p.Lease.State) + 24
	}
	if p.Carried != CarryNone {
		n += p.Vote.wireSize()
	}
	return n
}

// AppendWire implements rpc.Wire.
func (p InvokeResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendBytes(dst, p.Result)
	dst = rpc.AppendBool(dst, p.Modified)
	dst = rpc.AppendUvarint(dst, p.Seq)
	dst = rpc.AppendBool(dst, p.Batched)
	dst = rpc.AppendUvarint(dst, uint64(p.BatchSize))
	dst = rpc.AppendVarint(dst, p.WaitNanos)
	dst = rpc.AppendBool(dst, p.Lease != nil)
	if p.Lease != nil {
		dst = rpc.AppendString(dst, p.Lease.Class)
		dst = rpc.AppendBytes(dst, p.Lease.State)
		dst = rpc.AppendUvarint(dst, p.Lease.Seq)
		dst = rpc.AppendVarint(dst, int64(p.Lease.TTL))
	}
	dst = rpc.AppendUvarint(dst, uint64(p.Carried))
	if p.Carried != CarryNone {
		dst = p.Vote.appendWire(dst)
	}
	return dst
}

// ParseWire implements rpc.Wire.
func (InvokeResp) ParseWire(_ byte, r *rpc.WireReader) (p InvokeResp, err error) {
	p.Result = r.Bytes()
	p.Modified = r.Bool()
	p.Seq = r.Uvarint()
	p.Batched = r.Bool()
	p.BatchSize = int(r.Uvarint())
	p.WaitNanos = r.Varint()
	if r.Bool() {
		p.Lease = &LeaseGrant{
			Class: r.String(),
			State: r.Bytes(),
			Seq:   r.Uvarint(),
			TTL:   time.Duration(r.Varint()),
		}
	}
	if p.Carried, err = readCarry(r); err != nil {
		return p, err
	}
	if p.Carried != CarryNone {
		p.Vote = parseVote(r)
	}
	return p, nil
}

// PrepareReq

// WireTag implements rpc.Wire.
func (PrepareReq) WireTag() (byte, byte) { return wireTagPrepareReq, 3 }

// WireSizeHint implements rpc.Wire.
func (q PrepareReq) WireSizeHint() int {
	n := len(q.Action) + 8
	for _, it := range q.Items {
		n += len(it.UID) + 2 + rpc.AddrsSize(it.StNodes) + rpc.AddrsSize(it.CheckpointTo)
	}
	return n
}

// AppendWire implements rpc.Wire.
func (q PrepareReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.Action)
	dst = rpc.AppendBool(dst, q.OnePhase)
	dst = rpc.AppendUvarint(dst, uint64(len(q.Items)))
	for _, it := range q.Items {
		dst = rpc.AppendString(dst, it.UID)
		dst = rpc.AppendAddrs(dst, it.StNodes)
		dst = rpc.AppendAddrs(dst, it.CheckpointTo)
	}
	return dst
}

// ParseWire implements rpc.Wire.
func (PrepareReq) ParseWire(_ byte, r *rpc.WireReader) (PrepareReq, error) {
	q := PrepareReq{Action: r.String(), OnePhase: r.Bool()}
	if n := r.Count(3); n > 0 { // an item is a UID and two lists
		q.Items = make([]PrepareItem, n)
		for i := range q.Items {
			q.Items[i] = PrepareItem{UID: r.String(), StNodes: r.Addrs(), CheckpointTo: r.Addrs()}
		}
	}
	return q, nil
}

// PrepareResp

// WireTag implements rpc.Wire.
func (PrepareResp) WireTag() (byte, byte) { return wireTagPrepareResp, 2 }

// WireSizeHint implements rpc.Wire.
func (p PrepareResp) WireSizeHint() int {
	n := 2
	for i := range p.Votes {
		n += p.Votes[i].wireSize()
	}
	return n
}

// AppendWire implements rpc.Wire.
func (p PrepareResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendUvarint(dst, uint64(len(p.Votes)))
	for i := range p.Votes {
		dst = p.Votes[i].appendWire(dst)
	}
	return dst
}

// ParseWire implements rpc.Wire.
func (PrepareResp) ParseWire(_ byte, r *rpc.WireReader) (PrepareResp, error) {
	var p PrepareResp
	if n := r.Count(minVoteSize); n > 0 {
		p.Votes = make([]Vote, n)
		for i := range p.Votes {
			p.Votes[i] = parseVote(r)
		}
	}
	return p, nil
}

// Vote is no record of its own: it rides PrepareResp and InvokeResp.

func (v *Vote) wireSize() int {
	return len(v.Code) + len(v.Msg) + 24 + rpc.AddrsSize(v.PreparedNodes) + rpc.AddrsSize(v.FailedNodes)
}

func (v *Vote) appendWire(dst []byte) []byte {
	dst = rpc.AppendBool(dst, v.Dirty)
	dst = rpc.AppendUvarint(dst, v.NewSeq)
	dst = rpc.AppendAddrs(dst, v.PreparedNodes)
	dst = rpc.AppendAddrs(dst, v.FailedNodes)
	dst = rpc.AppendUvarint(dst, uint64(v.BatchSize))
	dst = rpc.AppendString(dst, v.Code)
	return rpc.AppendString(dst, v.Msg)
}

// minVoteSize is the fewest bytes a vote encodes to: one per field.
const minVoteSize = 7

func parseVote(r *rpc.WireReader) Vote {
	return Vote{
		Dirty:         r.Bool(),
		NewSeq:        r.Uvarint(),
		PreparedNodes: r.Addrs(),
		FailedNodes:   r.Addrs(),
		BatchSize:     int(r.Uvarint()),
		Code:          r.String(),
		Msg:           r.String(),
	}
}

// EndReq

// WireTag implements rpc.Wire.
func (EndReq) WireTag() (byte, byte) { return wireTagEndReq, 2 }

// WireSizeHint implements rpc.Wire.
func (q EndReq) WireSizeHint() int {
	n := len(q.Action) + 4
	for _, it := range q.Items {
		n += len(it.UID) + 2 + rpc.AddrsSize(it.CheckpointTo)
	}
	return n
}

// AppendWire implements rpc.Wire.
func (q EndReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.Action)
	dst = rpc.AppendUvarint(dst, uint64(len(q.Items)))
	for _, it := range q.Items {
		dst = rpc.AppendString(dst, it.UID)
		dst = rpc.AppendAddrs(dst, it.CheckpointTo)
	}
	return dst
}

// ParseWire implements rpc.Wire.
func (EndReq) ParseWire(_ byte, r *rpc.WireReader) (EndReq, error) {
	q := EndReq{Action: r.String()}
	if n := r.Count(2); n > 0 { // an item is a UID and a list
		q.Items = make([]EndItem, n)
		for i := range q.Items {
			q.Items[i] = EndItem{UID: r.String(), CheckpointTo: r.Addrs()}
		}
	}
	return q, nil
}

// EndResp

// WireTag implements rpc.Wire.
func (EndResp) WireTag() (byte, byte) { return wireTagEndResp, 2 }

// WireSizeHint implements rpc.Wire.
func (p EndResp) WireSizeHint() int {
	n := 2
	for _, res := range p.Results {
		n += rpc.AddrsSize(res.FailedNodes) + len(res.Code) + len(res.Msg) + 4
	}
	return n
}

// AppendWire implements rpc.Wire.
func (p EndResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendUvarint(dst, uint64(len(p.Results)))
	for _, res := range p.Results {
		dst = rpc.AppendAddrs(dst, res.FailedNodes)
		dst = rpc.AppendString(dst, res.Code)
		dst = rpc.AppendString(dst, res.Msg)
	}
	return dst
}

// ParseWire implements rpc.Wire.
func (EndResp) ParseWire(_ byte, r *rpc.WireReader) (EndResp, error) {
	var p EndResp
	if n := r.Count(3); n > 0 { // a result is a list, a code and a message
		p.Results = make([]EndResult, n)
		for i := range p.Results {
			p.Results[i] = EndResult{FailedNodes: r.Addrs(), Code: r.String(), Msg: r.String()}
		}
	}
	return p, nil
}

// InstallReq

// WireTag implements rpc.Wire.
func (InstallReq) WireTag() (byte, byte) { return wireTagInstallReq, 1 }

// WireSizeHint implements rpc.Wire.
func (q InstallReq) WireSizeHint() int {
	return len(q.UID) + len(q.Class) + len(q.State) + 24
}

// AppendWire implements rpc.Wire.
func (q InstallReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.UID)
	dst = rpc.AppendString(dst, q.Class)
	dst = rpc.AppendBytes(dst, q.State)
	return rpc.AppendUvarint(dst, q.Seq)
}

// ParseWire implements rpc.Wire.
func (InstallReq) ParseWire(_ byte, r *rpc.WireReader) (InstallReq, error) {
	return InstallReq{UID: r.String(), Class: r.String(), State: r.Bytes(), Seq: r.Uvarint()}, nil
}

// InstallResp

// WireTag implements rpc.Wire.
func (InstallResp) WireTag() (byte, byte) { return wireTagInstallResp, 1 }

// WireSizeHint implements rpc.Wire.
func (InstallResp) WireSizeHint() int { return 1 }

// AppendWire implements rpc.Wire.
func (p InstallResp) AppendWire(dst []byte) []byte { return rpc.AppendBool(dst, p.Installed) }

// ParseWire implements rpc.Wire.
func (InstallResp) ParseWire(_ byte, r *rpc.WireReader) (InstallResp, error) {
	return InstallResp{Installed: r.Bool()}, nil
}

// PassivateReq

// WireTag implements rpc.Wire.
func (PassivateReq) WireTag() (byte, byte) { return wireTagPassivateReq, 1 }

// WireSizeHint implements rpc.Wire.
func (q PassivateReq) WireSizeHint() int { return len(q.UID) + 3 }

// AppendWire implements rpc.Wire.
func (q PassivateReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.UID)
	return rpc.AppendBool(dst, q.Force)
}

// ParseWire implements rpc.Wire.
func (PassivateReq) ParseWire(_ byte, r *rpc.WireReader) (PassivateReq, error) {
	return PassivateReq{UID: r.String(), Force: r.Bool()}, nil
}

// PassivateResp

// WireTag implements rpc.Wire.
func (PassivateResp) WireTag() (byte, byte) { return wireTagPassivateResp, 1 }

// WireSizeHint implements rpc.Wire.
func (PassivateResp) WireSizeHint() int { return 1 }

// AppendWire implements rpc.Wire.
func (p PassivateResp) AppendWire(dst []byte) []byte { return rpc.AppendBool(dst, p.Passivated) }

// ParseWire implements rpc.Wire.
func (PassivateResp) ParseWire(_ byte, r *rpc.WireReader) (PassivateResp, error) {
	return PassivateResp{Passivated: r.Bool()}, nil
}

// StatusReq

// WireTag implements rpc.Wire.
func (StatusReq) WireTag() (byte, byte) { return wireTagStatusReq, 1 }

// WireSizeHint implements rpc.Wire.
func (q StatusReq) WireSizeHint() int { return len(q.UID) + 2 }

// AppendWire implements rpc.Wire.
func (q StatusReq) AppendWire(dst []byte) []byte { return rpc.AppendString(dst, q.UID) }

// ParseWire implements rpc.Wire.
func (StatusReq) ParseWire(_ byte, r *rpc.WireReader) (StatusReq, error) {
	return StatusReq{UID: r.String()}, nil
}

// StatusResp

// WireTag implements rpc.Wire.
func (StatusResp) WireTag() (byte, byte) { return wireTagStatusResp, 1 }

// WireSizeHint implements rpc.Wire.
func (StatusResp) WireSizeHint() int { return 32 }

// AppendWire implements rpc.Wire.
func (p StatusResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendBool(dst, p.Active)
	dst = rpc.AppendUvarint(dst, p.Seq)
	dst = rpc.AppendUvarint(dst, uint64(p.Users))
	return rpc.AppendUvarint(dst, uint64(p.Prepared))
}

// ParseWire implements rpc.Wire.
func (StatusResp) ParseWire(_ byte, r *rpc.WireReader) (StatusResp, error) {
	return StatusResp{Active: r.Bool(), Seq: r.Uvarint(), Users: int(r.Uvarint()), Prepared: int(r.Uvarint())}, nil
}
