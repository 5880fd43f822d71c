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

func appendAddrs(dst []byte, as []transport.Addr) []byte {
	dst = rpc.AppendUvarint(dst, uint64(len(as)))
	for _, a := range as {
		dst = rpc.AppendString(dst, string(a))
	}
	return dst
}

// readCount consumes an element count, bounded by the bytes left (every
// element costs at least one) so a corrupt prefix cannot demand a huge
// allocation. ok is false on a failed reader or an impossible count.
func readCount(r *rpc.WireReader) (n int, ok bool) {
	c := r.Uvarint()
	if r.Err() != nil || c > uint64(r.Remaining()) {
		return 0, false
	}
	return int(c), true
}

func readAddrs(r *rpc.WireReader) ([]transport.Addr, error) {
	n, ok := readCount(r)
	if !ok {
		return nil, rpc.ErrWire
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]transport.Addr, n)
	for i := range out {
		out[i] = transport.Addr(r.String())
	}
	return out, nil
}

// Operation flags, one bit each in the op's flag byte.
const (
	flagWantUse byte = 1 << iota
	flagForUpdate
	flagTryOnly
	flagUseWriteLock
	flagCommit
)

func bit(set bool, f byte) byte {
	if set {
		return f
	}
	return 0
}

// --- BatchReq ---

// WireTag implements rpc.Wire.
func (*BatchReq) WireTag() (byte, byte) { return wireTagBatchReq, 3 }

// WireSizeHint implements rpc.WireSizer.
func (q *BatchReq) WireSizeHint() int { return 64 * len(q.Ops) }

// AppendWire implements rpc.Wire.
func (q *BatchReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendUvarint(dst, uint64(len(q.Ops)))
	for i := range q.Ops {
		op := &q.Ops[i]
		// Kind and flags are both below 0x80: each byte is its own uvarint.
		dst = append(dst, byte(op.Kind),
			bit(op.WantUse, flagWantUse)|bit(op.ForUpdate, flagForUpdate)|bit(op.TryOnly, flagTryOnly)|
				bit(op.UseWriteLock, flagUseWriteLock)|bit(op.Commit, flagCommit))
		dst = rpc.AppendString(dst, op.Action)
		dst = appendUID(dst, op.UID)
		dst = rpc.AppendString(dst, op.Class)
		dst = rpc.AppendString(dst, string(op.Host))
		dst = appendAddrs(dst, op.Hosts)
		dst = appendAddrs(dst, op.Stores)
		dst = rpc.AppendUvarint(dst, uint64(len(op.Pairs)))
		for _, p := range op.Pairs {
			dst = appendUID(dst, p.UID)
			dst = appendAddrs(dst, p.Hosts)
		}
		dst = rpc.AppendUvarint(dst, uint64(op.Degree))
	}
	return dst
}

// ParseWire implements rpc.Wire. An operation kind this version does not
// know fails the whole request: executing the rest of a conversation
// around a hole would not be the conversation the client sent.
func (q *BatchReq) ParseWire(_ byte, r *rpc.WireReader) (err error) {
	n, ok := readCount(r)
	if !ok {
		return rpc.ErrWire
	}
	q.Ops = make([]Op, n)
	for i := range q.Ops {
		op := &q.Ops[i]
		kind, flags := r.Uvarint(), r.Uvarint()
		if kind == 0 || kind >= uint64(opKindEnd) || flags > 0xff {
			return rpc.ErrWire
		}
		op.Kind = OpKind(kind)
		op.WantUse, op.ForUpdate, op.TryOnly = byte(flags)&flagWantUse != 0, byte(flags)&flagForUpdate != 0, byte(flags)&flagTryOnly != 0
		op.UseWriteLock, op.Commit = byte(flags)&flagUseWriteLock != 0, byte(flags)&flagCommit != 0
		op.Action = r.String()
		op.UID = readUID(r)
		op.Class = r.String()
		op.Host = transport.Addr(r.String())
		if op.Hosts, err = readAddrs(r); err != nil {
			return err
		}
		if op.Stores, err = readAddrs(r); err != nil {
			return err
		}
		pairs, ok := readCount(r)
		if !ok {
			return rpc.ErrWire
		}
		if pairs > 0 {
			op.Pairs = make([]ExcludePair, pairs)
		}
		for j := range op.Pairs {
			op.Pairs[j].UID = readUID(r)
			if op.Pairs[j].Hosts, err = readAddrs(r); err != nil {
				return err
			}
		}
		degree := r.Uvarint()
		if degree > math.MaxInt32 {
			return rpc.ErrWire
		}
		op.Degree = int(degree)
	}
	return nil
}

// --- BatchResp ---

// WireTag implements rpc.Wire.
func (*BatchResp) WireTag() (byte, byte) { return wireTagBatchResp, 2 }

// AppendWire implements rpc.Wire.
func (p *BatchResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendUvarint(dst, uint64(len(p.Results)))
	for i := range p.Results {
		res := &p.Results[i]
		dst = appendAddrs(dst, res.Nodes)
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
		dst = appendAddrs(dst, res.Hosts)
	}
	return dst
}

// ParseWire implements rpc.Wire.
func (p *BatchResp) ParseWire(_ byte, r *rpc.WireReader) (err error) {
	n, ok := readCount(r)
	if !ok {
		return rpc.ErrWire
	}
	p.Results = make([]OpResult, n)
	for i := range p.Results {
		res := &p.Results[i]
		if res.Nodes, err = readAddrs(r); err != nil {
			return err
		}
		res.Class = r.String()
		hosts, ok := readCount(r)
		if !ok {
			return rpc.ErrWire
		}
		if hosts > 0 {
			res.Use = make(map[transport.Addr]map[transport.Addr]int, hosts)
		}
		for j := 0; j < hosts; j++ {
			host := transport.Addr(r.String())
			clients, ok := readCount(r)
			if !ok {
				return rpc.ErrWire
			}
			byClient := make(map[transport.Addr]int, clients)
			for k := 0; k < clients; k++ {
				byClient[transport.Addr(r.String())] = int(r.Varint())
			}
			res.Use[host] = byClient
		}
		if res.Hosts, err = readAddrs(r); err != nil {
			return err
		}
	}
	return nil
}

// --- entryRecord ---

// useCount is one non-zero use-list counter of an Sv entry's record.
type useCount struct {
	Host, Client transport.Addr
	N            int
}

// entryRecord is the durable form of one database entry (see db.go,
// "persistence"). An Sv entry's record carries Nodes and Use, an St
// entry's Nodes and Class; which of the two a record is follows from the
// key it is stored under. Deleted marks the tombstone of a deregistered
// entry; an St tombstone's Nodes then name the database the object moved
// to, if it moved (see DB.Deregister).
type entryRecord struct {
	Deleted bool
	Nodes   []transport.Addr
	Class   string
	Use     []useCount
}

// WireTag implements rpc.Wire.
func (*entryRecord) WireTag() (byte, byte) { return wireTagEntryRecord, 1 }

// AppendWire implements rpc.Wire.
func (e *entryRecord) AppendWire(dst []byte) []byte {
	dst = rpc.AppendBool(dst, e.Deleted)
	dst = appendAddrs(dst, e.Nodes)
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
func (e *entryRecord) ParseWire(_ byte, r *rpc.WireReader) (err error) {
	e.Deleted = r.Bool()
	if e.Nodes, err = readAddrs(r); err != nil {
		return err
	}
	e.Class = r.String()
	n, ok := readCount(r)
	if !ok {
		return rpc.ErrWire
	}
	if n > 0 {
		e.Use = make([]useCount, n)
	}
	for i := range e.Use {
		e.Use[i] = useCount{transport.Addr(r.String()), transport.Addr(r.String()), int(r.Uvarint())}
	}
	return nil
}

// --- name server records ---

// WireTag implements rpc.Wire.
func (*NameGetReq) WireTag() (byte, byte) { return wireTagNameGetReq, 1 }

// AppendWire implements rpc.Wire.
func (q *NameGetReq) AppendWire(dst []byte) []byte { return appendUID(dst, q.UID) }

// ParseWire implements rpc.Wire.
func (q *NameGetReq) ParseWire(_ byte, r *rpc.WireReader) error {
	q.UID = readUID(r)
	return nil
}

// WireTag implements rpc.Wire.
func (*NameGetResp) WireTag() (byte, byte) { return wireTagNameGetResp, 1 }

// AppendWire implements rpc.Wire.
func (p *NameGetResp) AppendWire(dst []byte) []byte { return appendAddrs(dst, p.Nodes) }

// ParseWire implements rpc.Wire.
func (p *NameGetResp) ParseWire(_ byte, r *rpc.WireReader) (err error) {
	p.Nodes, err = readAddrs(r)
	return err
}

// WireTag implements rpc.Wire.
func (*NameUpdateReq) WireTag() (byte, byte) { return wireTagNameUpdateReq, 1 }

// AppendWire implements rpc.Wire.
func (q *NameUpdateReq) AppendWire(dst []byte) []byte {
	dst = appendUID(dst, q.UID)
	dst = rpc.AppendString(dst, string(q.Host))
	return appendAddrs(dst, q.Nodes)
}

// ParseWire implements rpc.Wire.
func (q *NameUpdateReq) ParseWire(_ byte, r *rpc.WireReader) (err error) {
	q.UID = readUID(r)
	q.Host = transport.Addr(r.String())
	q.Nodes, err = readAddrs(r)
	return err
}
