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
// at version 5, the invoke reply at version 4 (Seq), the prepare request at
// version 2; everything else is at version 1. Every peer runs the same
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
func (*InvokeReq) WireTag() (byte, byte) { return wireTagInvokeReq, 5 }

// WireSizeHint implements rpc.WireSizer.
func (q *InvokeReq) WireSizeHint() int {
	n := len(q.UID) + len(q.Action) + len(q.Method) + len(q.Args) + len(q.LeaseHolder) + len(q.Class) + 28
	for _, st := range q.StNodes {
		n += len(st) + 2
	}
	for _, sv := range q.CheckpointTo {
		n += len(sv) + 2
	}
	return n
}

// AppendWire implements rpc.Wire.
func (q *InvokeReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.UID)
	dst = rpc.AppendString(dst, q.Action)
	dst = rpc.AppendString(dst, q.Method)
	dst = rpc.AppendBytes(dst, q.Args)
	dst = rpc.AppendBool(dst, q.Solo)
	dst = rpc.AppendString(dst, q.LeaseHolder)
	dst = rpc.AppendString(dst, q.Class)
	dst = rpc.AppendStrings(dst, q.StNodes)
	dst = rpc.AppendUvarint(dst, uint64(q.Carry))
	dst = rpc.AppendStrings(dst, q.CheckpointTo)
	return rpc.AppendBool(dst, q.Failover)
}

// ParseWire implements rpc.Wire.
func (q *InvokeReq) ParseWire(_ byte, r *rpc.WireReader) (err error) {
	q.UID = r.String()
	q.Action = r.String()
	q.Method = r.String()
	q.Args = r.Bytes()
	q.Solo = r.Bool()
	q.LeaseHolder = r.String()
	q.Class = r.String()
	q.StNodes = r.Strings()
	if q.Carry, err = readCarry(r); err != nil {
		return err
	}
	q.CheckpointTo = r.Strings()
	q.Failover = r.Bool()
	return nil
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
func (*InvokeResp) WireTag() (byte, byte) { return wireTagInvokeResp, 4 }

// WireSizeHint implements rpc.WireSizer.
func (p *InvokeResp) WireSizeHint() int {
	n := len(p.Result) + 42
	if p.Lease != nil {
		n += len(p.Lease.Class) + len(p.Lease.State) + 24
	}
	if p.Carried != CarryNone {
		n += len(p.VoteCode) + len(p.VoteMsg) + 24
		for _, st := range p.Vote.PreparedNodes {
			n += len(st) + 2
		}
		for _, st := range p.Vote.FailedNodes {
			n += len(st) + 2
		}
	}
	return n
}

// AppendWire implements rpc.Wire.
func (p *InvokeResp) AppendWire(dst []byte) []byte {
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
		dst = rpc.AppendString(dst, p.VoteCode)
		dst = rpc.AppendString(dst, p.VoteMsg)
		dst = p.Vote.AppendWire(dst)
	}
	return dst
}

// ParseWire implements rpc.Wire.
func (p *InvokeResp) ParseWire(_ byte, r *rpc.WireReader) (err error) {
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
		return err
	}
	if p.Carried != CarryNone {
		p.VoteCode = r.String()
		p.VoteMsg = r.String()
		return p.Vote.ParseWire(1, r)
	}
	return nil
}

// PrepareReq

// WireTag implements rpc.Wire.
func (*PrepareReq) WireTag() (byte, byte) { return wireTagPrepareReq, 2 }

// AppendWire implements rpc.Wire.
func (q *PrepareReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.UID)
	dst = rpc.AppendString(dst, q.Action)
	dst = rpc.AppendStrings(dst, q.StNodes)
	dst = rpc.AppendBool(dst, q.OnePhase)
	return rpc.AppendStrings(dst, q.CheckpointTo)
}

// ParseWire implements rpc.Wire.
func (q *PrepareReq) ParseWire(_ byte, r *rpc.WireReader) error {
	q.UID = r.String()
	q.Action = r.String()
	q.StNodes = r.Strings()
	q.OnePhase = r.Bool()
	q.CheckpointTo = r.Strings()
	return nil
}

// PrepareResp

// WireTag implements rpc.Wire.
func (*PrepareResp) WireTag() (byte, byte) { return wireTagPrepareResp, 1 }

// AppendWire implements rpc.Wire.
func (p *PrepareResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendBool(dst, p.Dirty)
	dst = rpc.AppendUvarint(dst, p.NewSeq)
	dst = rpc.AppendStrings(dst, p.PreparedNodes)
	dst = rpc.AppendStrings(dst, p.FailedNodes)
	return rpc.AppendUvarint(dst, uint64(p.BatchSize))
}

// ParseWire implements rpc.Wire.
func (p *PrepareResp) ParseWire(_ byte, r *rpc.WireReader) error {
	p.Dirty = r.Bool()
	p.NewSeq = r.Uvarint()
	p.PreparedNodes = r.Strings()
	p.FailedNodes = r.Strings()
	p.BatchSize = int(r.Uvarint())
	return nil
}

// EndReq

// WireTag implements rpc.Wire.
func (*EndReq) WireTag() (byte, byte) { return wireTagEndReq, 1 }

// AppendWire implements rpc.Wire.
func (q *EndReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.UID)
	dst = rpc.AppendString(dst, q.Action)
	return rpc.AppendStrings(dst, q.CheckpointTo)
}

// ParseWire implements rpc.Wire.
func (q *EndReq) ParseWire(_ byte, r *rpc.WireReader) error {
	q.UID = r.String()
	q.Action = r.String()
	q.CheckpointTo = r.Strings()
	return nil
}

// EndResp

// WireTag implements rpc.Wire.
func (*EndResp) WireTag() (byte, byte) { return wireTagEndResp, 1 }

// AppendWire implements rpc.Wire.
func (p *EndResp) AppendWire(dst []byte) []byte { return rpc.AppendStrings(dst, p.FailedNodes) }

// ParseWire implements rpc.Wire.
func (p *EndResp) ParseWire(_ byte, r *rpc.WireReader) error {
	p.FailedNodes = r.Strings()
	return nil
}

// InstallReq

// WireTag implements rpc.Wire.
func (*InstallReq) WireTag() (byte, byte) { return wireTagInstallReq, 1 }

// WireSizeHint implements rpc.WireSizer.
func (q *InstallReq) WireSizeHint() int {
	return len(q.UID) + len(q.Class) + len(q.State) + 24
}

// AppendWire implements rpc.Wire.
func (q *InstallReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.UID)
	dst = rpc.AppendString(dst, q.Class)
	dst = rpc.AppendBytes(dst, q.State)
	return rpc.AppendUvarint(dst, q.Seq)
}

// ParseWire implements rpc.Wire.
func (q *InstallReq) ParseWire(_ byte, r *rpc.WireReader) error {
	q.UID = r.String()
	q.Class = r.String()
	q.State = r.Bytes()
	q.Seq = r.Uvarint()
	return nil
}

// InstallResp

// WireTag implements rpc.Wire.
func (*InstallResp) WireTag() (byte, byte) { return wireTagInstallResp, 1 }

// AppendWire implements rpc.Wire.
func (p *InstallResp) AppendWire(dst []byte) []byte { return rpc.AppendBool(dst, p.Installed) }

// ParseWire implements rpc.Wire.
func (p *InstallResp) ParseWire(_ byte, r *rpc.WireReader) error {
	p.Installed = r.Bool()
	return nil
}

// PassivateReq

// WireTag implements rpc.Wire.
func (*PassivateReq) WireTag() (byte, byte) { return wireTagPassivateReq, 1 }

// AppendWire implements rpc.Wire.
func (q *PassivateReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.UID)
	return rpc.AppendBool(dst, q.Force)
}

// ParseWire implements rpc.Wire.
func (q *PassivateReq) ParseWire(_ byte, r *rpc.WireReader) error {
	q.UID = r.String()
	q.Force = r.Bool()
	return nil
}

// PassivateResp

// WireTag implements rpc.Wire.
func (*PassivateResp) WireTag() (byte, byte) { return wireTagPassivateResp, 1 }

// AppendWire implements rpc.Wire.
func (p *PassivateResp) AppendWire(dst []byte) []byte { return rpc.AppendBool(dst, p.Passivated) }

// ParseWire implements rpc.Wire.
func (p *PassivateResp) ParseWire(_ byte, r *rpc.WireReader) error {
	p.Passivated = r.Bool()
	return nil
}

// StatusReq

// WireTag implements rpc.Wire.
func (*StatusReq) WireTag() (byte, byte) { return wireTagStatusReq, 1 }

// AppendWire implements rpc.Wire.
func (q *StatusReq) AppendWire(dst []byte) []byte { return rpc.AppendString(dst, q.UID) }

// ParseWire implements rpc.Wire.
func (q *StatusReq) ParseWire(_ byte, r *rpc.WireReader) error {
	q.UID = r.String()
	return nil
}

// StatusResp

// WireTag implements rpc.Wire.
func (*StatusResp) WireTag() (byte, byte) { return wireTagStatusResp, 1 }

// AppendWire implements rpc.Wire.
func (p *StatusResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendBool(dst, p.Active)
	dst = rpc.AppendUvarint(dst, p.Seq)
	dst = rpc.AppendUvarint(dst, uint64(p.Users))
	return rpc.AppendUvarint(dst, uint64(p.Prepared))
}

// ParseWire implements rpc.Wire.
func (p *StatusResp) ParseWire(_ byte, r *rpc.WireReader) error {
	p.Active = r.Bool()
	p.Seq = r.Uvarint()
	p.Users = int(r.Uvarint())
	p.Prepared = int(r.Uvarint())
	return nil
}
