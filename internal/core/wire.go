package core

import (
	"math"

	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

// Binary codecs (rpc.Wire) for the group-view database's records: the
// batch request and response every bind, use-list adjustment, view read
// and action end rides, the durable entry record every commit writes, and
// the §5 name server's requests. Tags live in the 0x01–0x1f block of the
// registry in internal/rpc/doc.go. The batch request is at version 3 (an
// op that names no action runs under the message's own), the batch reply at
// version 2, the rest at version 1. Only a record's current version
// decodes (see rpc.Wire).
// (0x01 was the database's own empty Ack, which rpc.Empty replaced, and
// 0x02–0x0d the per-operation request and response records the batch
// replaced; they stay retired.)
const (
	wireTagBatchReq      byte = 0x0e
	wireTagBatchResp     byte = 0x0f
	wireTagEntryRecord   byte = 0x10
	wireTagNameGetReq    byte = 0x11
	wireTagNameGetResp   byte = 0x12
	wireTagNameUpdateReq byte = 0x13
)

// --- field helpers ---

func appendUID(dst []byte, id uid.UID) []byte {
	dst = rpc.AppendString(dst, id.Origin)
	dst = rpc.AppendUvarint(dst, uint64(id.Epoch))
	return rpc.AppendUvarint(dst, id.Seq)
}

func readUID(r *rpc.WireReader) uid.UID {
	return uid.UID{Origin: r.String(), Epoch: uint32(r.Uvarint()), Seq: r.Uvarint()}
}

// Operation flags, one bit each in the op's flag byte. The third bit is
// unused, so that the other flags keep the bits version 3 gave them.
const (
	flagWantUse byte = 1 << iota
	flagForUpdate
	_
	flagUseWriteLock
	flagCommit
)

func bit(set bool, f byte) byte {
	if set {
		return f
	}
	return 0
}

// The fewest bytes a list element encodes to, one per field: an op's kind
// and flags and its ten fields (a UID is three), an exclude pair's UID and
// host list, a result's four fields, a use-list host's name and client
// count, a client's name and count, an entry record's use counter.
const (
	minOpSize       = 12
	minPairSize     = 4
	minResultSize   = 4
	minUseHostSize  = 2
	minUseCountSize = 2
	minUseEntrySize = 3
)

// --- BatchReq ---

// WireTag implements rpc.Wire.
func (BatchReq) WireTag() (byte, byte) { return wireTagBatchReq, 3 }

// WireSizeHint implements rpc.Wire.
func (q BatchReq) WireSizeHint() int { return 64 * len(q.Ops) }

// AppendWire implements rpc.Wire.
func (q BatchReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendUvarint(dst, uint64(len(q.Ops)))
	for i := range q.Ops {
		op := &q.Ops[i]
		// Kind and flags are both below 0x80: each byte is its own uvarint.
		dst = append(dst, byte(op.Kind),
			bit(op.WantUse, flagWantUse)|bit(op.ForUpdate, flagForUpdate)|
				bit(op.UseWriteLock, flagUseWriteLock)|bit(op.Commit, flagCommit))
		dst = rpc.AppendString(dst, op.Action)
		dst = appendUID(dst, op.UID)
		dst = rpc.AppendString(dst, op.Class)
		dst = rpc.AppendString(dst, string(op.Host))
		dst = rpc.AppendAddrs(dst, op.Hosts)
		dst = rpc.AppendAddrs(dst, op.Stores)
		dst = rpc.AppendUvarint(dst, uint64(len(op.Pairs)))
		for _, p := range op.Pairs {
			dst = appendUID(dst, p.UID)
			dst = rpc.AppendAddrs(dst, p.Hosts)
		}
		dst = rpc.AppendUvarint(dst, uint64(op.Degree))
	}
	return dst
}

// ParseWire implements rpc.Wire. An operation kind this version does not
// know fails the whole request: executing the rest of a conversation
// around a hole would not be the conversation the client sent.
func (BatchReq) ParseWire(_ byte, r *rpc.WireReader) (BatchReq, error) {
	q := BatchReq{Ops: make([]Op, r.Count(minOpSize))}
	for i := range q.Ops {
		op := &q.Ops[i]
		kind, flags := r.Uvarint(), r.Uvarint()
		if kind == 0 || kind >= uint64(opKindEnd) || flags > 0xff {
			return BatchReq{}, rpc.ErrWire
		}
		op.Kind = OpKind(kind)
		op.WantUse, op.ForUpdate = byte(flags)&flagWantUse != 0, byte(flags)&flagForUpdate != 0
		op.UseWriteLock, op.Commit = byte(flags)&flagUseWriteLock != 0, byte(flags)&flagCommit != 0
		op.Action = r.String()
		op.UID = readUID(r)
		op.Class = r.String()
		op.Host = transport.Addr(r.String())
		op.Hosts = r.Addrs()
		op.Stores = r.Addrs()
		if n := r.Count(minPairSize); n > 0 {
			op.Pairs = make([]ExcludePair, n)
			for j := range op.Pairs {
				op.Pairs[j] = ExcludePair{UID: readUID(r), Hosts: r.Addrs()}
			}
		}
		degree := r.Uvarint()
		if degree > math.MaxInt32 {
			return BatchReq{}, rpc.ErrWire
		}
		op.Degree = int(degree)
	}
	return q, nil
}

// --- BatchResp ---

// WireTag implements rpc.Wire.
func (BatchResp) WireTag() (byte, byte) { return wireTagBatchResp, 2 }

// WireSizeHint implements rpc.Wire.
func (p BatchResp) WireSizeHint() int { return 64 * len(p.Results) }

// AppendWire implements rpc.Wire.
func (p BatchResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendUvarint(dst, uint64(len(p.Results)))
	for i := range p.Results {
		res := &p.Results[i]
		dst = rpc.AppendAddrs(dst, res.Nodes)
		dst = rpc.AppendString(dst, res.Class)
		dst = rpc.AppendUvarint(dst, uint64(len(res.Use)))
		for host, byClient := range res.Use {
			dst = rpc.AppendString(dst, string(host))
			dst = rpc.AppendUvarint(dst, uint64(len(byClient)))
			for client, n := range byClient {
				dst = rpc.AppendString(dst, string(client))
				dst = rpc.AppendVarint(dst, int64(n))
			}
		}
		dst = rpc.AppendAddrs(dst, res.Hosts)
	}
	return dst
}

// ParseWire implements rpc.Wire.
func (BatchResp) ParseWire(_ byte, r *rpc.WireReader) (BatchResp, error) {
	p := BatchResp{Results: make([]OpResult, r.Count(minResultSize))}
	for i := range p.Results {
		res := &p.Results[i]
		res.Nodes = r.Addrs()
		res.Class = r.String()
		if hosts := r.Count(minUseHostSize); hosts > 0 {
			res.Use = make(map[transport.Addr]map[transport.Addr]int, hosts)
			for j := 0; j < hosts; j++ {
				host := transport.Addr(r.String())
				clients := r.Count(minUseCountSize)
				byClient := make(map[transport.Addr]int, clients)
				for k := 0; k < clients; k++ {
					byClient[transport.Addr(r.String())] = int(r.Varint())
				}
				res.Use[host] = byClient
			}
		}
		res.Hosts = r.Addrs()
	}
	return p, nil
}

// --- EntryRecord ---

// UseCount is one non-zero use-list counter of an Sv entry's record.
type UseCount struct {
	Host, Client transport.Addr
	N            int
}

// EntryRecord is the durable form of one database entry (see db.go,
// "persistence"). An Sv entry's record carries Nodes and Use, an St
// entry's Nodes and Class; which of the two a record is follows from the
// key it is stored under. Deleted marks the tombstone of a deregistered
// entry; an St tombstone's Nodes then name the database the object moved
// to, if it moved (see DB.Deregister).
type EntryRecord struct {
	Deleted bool
	Nodes   []transport.Addr
	Class   string
	Use     []UseCount
}

// WireTag implements rpc.Wire.
func (EntryRecord) WireTag() (byte, byte) { return wireTagEntryRecord, 1 }

// WireSizeHint implements rpc.Wire.
func (e EntryRecord) WireSizeHint() int {
	return rpc.AddrsSize(e.Nodes) + len(e.Class) + 32*len(e.Use) + 4
}

// AppendWire implements rpc.Wire.
func (e EntryRecord) AppendWire(dst []byte) []byte {
	dst = rpc.AppendBool(dst, e.Deleted)
	dst = rpc.AppendAddrs(dst, e.Nodes)
	dst = rpc.AppendString(dst, e.Class)
	dst = rpc.AppendUvarint(dst, uint64(len(e.Use)))
	for _, u := range e.Use {
		dst = rpc.AppendString(dst, string(u.Host))
		dst = rpc.AppendString(dst, string(u.Client))
		dst = rpc.AppendUvarint(dst, uint64(u.N))
	}
	return dst
}

// ParseWire implements rpc.Wire.
func (EntryRecord) ParseWire(_ byte, r *rpc.WireReader) (EntryRecord, error) {
	e := EntryRecord{Deleted: r.Bool(), Nodes: r.Addrs(), Class: r.String()}
	if n := r.Count(minUseEntrySize); n > 0 {
		e.Use = make([]UseCount, n)
		for i := range e.Use {
			e.Use[i] = UseCount{transport.Addr(r.String()), transport.Addr(r.String()), int(r.Uvarint())}
		}
	}
	return e, nil
}

// --- name server records ---

// WireTag implements rpc.Wire.
func (NameGetReq) WireTag() (byte, byte) { return wireTagNameGetReq, 1 }

// WireSizeHint implements rpc.Wire.
func (q NameGetReq) WireSizeHint() int { return len(q.UID.Origin) + 16 }

// AppendWire implements rpc.Wire.
func (q NameGetReq) AppendWire(dst []byte) []byte { return appendUID(dst, q.UID) }

// ParseWire implements rpc.Wire.
func (NameGetReq) ParseWire(_ byte, r *rpc.WireReader) (NameGetReq, error) {
	return NameGetReq{UID: readUID(r)}, nil
}

// WireTag implements rpc.Wire.
func (NameGetResp) WireTag() (byte, byte) { return wireTagNameGetResp, 1 }

// WireSizeHint implements rpc.Wire.
func (p NameGetResp) WireSizeHint() int { return rpc.AddrsSize(p.Nodes) }

// AppendWire implements rpc.Wire.
func (p NameGetResp) AppendWire(dst []byte) []byte { return rpc.AppendAddrs(dst, p.Nodes) }

// ParseWire implements rpc.Wire.
func (NameGetResp) ParseWire(_ byte, r *rpc.WireReader) (NameGetResp, error) {
	return NameGetResp{Nodes: r.Addrs()}, nil
}

// WireTag implements rpc.Wire.
func (NameUpdateReq) WireTag() (byte, byte) { return wireTagNameUpdateReq, 1 }

// WireSizeHint implements rpc.Wire.
func (q NameUpdateReq) WireSizeHint() int {
	return len(q.UID.Origin) + 16 + len(q.Host) + 2 + rpc.AddrsSize(q.Nodes)
}

// AppendWire implements rpc.Wire.
func (q NameUpdateReq) AppendWire(dst []byte) []byte {
	dst = appendUID(dst, q.UID)
	dst = rpc.AppendString(dst, string(q.Host))
	return rpc.AppendAddrs(dst, q.Nodes)
}

// ParseWire implements rpc.Wire.
func (NameUpdateReq) ParseWire(_ byte, r *rpc.WireReader) (NameUpdateReq, error) {
	return NameUpdateReq{UID: readUID(r), Host: transport.Addr(r.String()), Nodes: r.Addrs()}, nil
}
