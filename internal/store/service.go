package store

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

// ServiceName is the RPC service name under which a node's object store is
// exported.
const ServiceName = "objectstore"

// RPC method names.
const (
	MethodRead = "Read"
	MethodPut  = "Put"
	// MethodPrepare records a transaction's writes as intentions — or, with
	// PrepareReq.OnePhase, commits them in the same round: the
	// single-participant 2PC fast path.
	MethodPrepare = "Prepare"
	MethodCommit  = "Commit"
	MethodAbort   = "Abort"
	// MethodResolveDecided asks the store to resolve pending intentions
	// with affirmatively recorded outcomes against its node's outcome
	// resolver. The handler is registered by the simulation layer (it
	// needs the node's coordinator routing); see sim.Cluster.Add.
	MethodResolveDecided = "ResolveDecided"
)

// CodeStaleVersion and CodeStoreBehind are the RPC error codes carrying
// ErrStaleVersion — alone, and together with ErrStoreBehind — across the
// wire.
const (
	CodeStaleVersion = "stale-version"
	CodeStoreBehind  = "store-behind"
)

// admissionErr gives a refused Prepare its wire code.
func admissionErr(err error) error {
	switch {
	case errors.Is(err, ErrBusy):
		return rpc.Errorf(rpc.CodeConflict, "%v", err)
	case errors.Is(err, ErrStoreBehind):
		return rpc.Errorf(CodeStoreBehind, "%v", err)
	case errors.Is(err, ErrStaleVersion):
		return rpc.Errorf(CodeStaleVersion, "%v", err)
	}
	return err
}

// chainSentinels maps a version-chain refusal's wire code back to the
// sentinels, for errors.Is.
func chainSentinels(err error) error {
	switch rpc.CodeOf(err) {
	case CodeStaleVersion:
		return fmt.Errorf("%v: %w", err, ErrStaleVersion)
	case CodeStoreBehind:
		return fmt.Errorf("%v: %w: %w", err, ErrStaleVersion, ErrStoreBehind)
	}
	return err
}

// Request/response records; their codecs are in wire.go.

// ReadReq asks for the committed version of an object.
type ReadReq struct{ UID string }

// ReadResp carries a committed version.
type ReadResp struct {
	Data   []byte
	Seq    uint64
	TxID   string
	Pinned bool
}

// PutReq installs a committed version directly.
type PutReq struct {
	UID  string
	Data []byte
	Seq  uint64
}

// PrepareReq carries a transaction's intended writes.
type PrepareReq struct {
	Tx     string
	Writes []WriteRec
	// OnePhase asks the store to commit the writes in this round instead of
	// recording them as intentions (Store.CommitOnePhase).
	OnePhase bool
}

// WriteRec is the wire form of Write.
type WriteRec struct {
	UID  string
	Data []byte
	Seq  uint64
}

// TxReq names a transaction for Commit/Abort.
type TxReq struct{ Tx string }

// ResolveResp reports what a ResolveDecided pass settled.
type ResolveResp struct {
	Applied []string
	Aborted []string
}

// checkUID refuses a request whose UID is not in canonical form: the
// handlers key the image with the request's string itself, so it must be
// the key that rendering the UID gives.
func checkUID(s string) error {
	id, err := uid.Parse(s)
	if err != nil {
		return rpc.Errorf(rpc.CodeInternal, "bad uid: %v", err)
	}
	var buf [keyLen]byte
	if string(id.Append(buf[:0])) != s {
		return rpc.Errorf(rpc.CodeInternal, "bad uid: %q is not in canonical form", s)
	}
	return nil
}

// RegisterService exposes s on srv under ServiceName.
func RegisterService(srv *rpc.Server, s *Store) {
	srv.Handle(ServiceName, MethodRead, rpc.Method(func(ctx context.Context, from transport.Addr, req ReadReq) (ReadResp, error) {
		if err := checkUID(req.UID); err != nil {
			return ReadResp{}, err
		}
		var buf [keyLen]byte
		v, err := s.read(append(buf[:0], req.UID...))
		if err != nil {
			if errors.Is(err, ErrNoState) {
				return ReadResp{}, rpc.Errorf(rpc.CodeNotFound, "%v", err)
			}
			return ReadResp{}, err
		}
		return ReadResp{Data: v.Data, Seq: v.Seq, TxID: v.TxID, Pinned: v.Pinned}, nil
	}))
	srv.Handle(ServiceName, MethodPut, rpc.Method(func(ctx context.Context, from transport.Addr, req PutReq) (rpc.Empty, error) {
		if err := checkUID(req.UID); err != nil {
			return rpc.Empty{}, err
		}
		return rpc.Empty{}, s.put(req.UID, req.Data, req.Seq)
	}))
	srv.Handle(ServiceName, MethodPrepare, rpc.Method(func(ctx context.Context, from transport.Addr, req PrepareReq) (rpc.Empty, error) {
		writes := make([]Write, 0, len(req.Writes))
		for _, w := range req.Writes {
			if err := checkUID(w.UID); err != nil {
				return rpc.Empty{}, err
			}
			writes = append(writes, Write{key: w.UID, Data: w.Data, Seq: w.Seq})
		}
		if req.OnePhase {
			return rpc.Empty{}, admissionErr(s.CommitOnePhase(req.Tx, writes))
		}
		return rpc.Empty{}, admissionErr(s.Prepare(req.Tx, writes))
	}))
	srv.Handle(ServiceName, MethodCommit, rpc.Method(func(ctx context.Context, from transport.Addr, req TxReq) (rpc.Empty, error) {
		return rpc.Empty{}, s.Commit(req.Tx)
	}))
	srv.Handle(ServiceName, MethodAbort, rpc.Method(func(ctx context.Context, from transport.Addr, req TxReq) (rpc.Empty, error) {
		return rpc.Empty{}, s.Abort(req.Tx)
	}))
}

// RemoteStore is a typed client for a store exported on another node.
type RemoteStore struct {
	Client rpc.Client
	Node   transport.Addr
}

// Read fetches a committed version from the remote store.
func (r RemoteStore) Read(ctx context.Context, id uid.UID) (Version, error) {
	resp, err := rpc.Invoke[ReadReq, ReadResp](ctx, r.Client, r.Node, ServiceName, MethodRead, ReadReq{UID: id.String()})
	if err != nil {
		if rpc.CodeOf(err) == rpc.CodeNotFound {
			return Version{}, ErrNoState
		}
		return Version{}, err
	}
	return Version{Data: resp.Data, Seq: resp.Seq, TxID: resp.TxID, Pinned: resp.Pinned}, nil
}

// ReadDecided is Read for a caller about to rely on the version as the
// object's latest: when the read shows an intention pending on the object,
// the store is first asked to apply what its coordinators have decided and
// is read again. The intention may be an acknowledged commit whose
// phase-two message never arrived, and the read beneath it returns the
// version before. A version still Pinned after that has an undecided
// intention on it.
func (r RemoteStore) ReadDecided(ctx context.Context, id uid.UID) (Version, error) {
	v, err := r.Read(ctx, id)
	if err == nil && v.Pinned {
		if _, rerr := r.ResolveDecided(ctx); rerr == nil {
			v, err = r.Read(ctx, id)
		}
	}
	return v, err
}

// Newest returns the newest committed version of id among the stores of
// view other than skip, each read with ReadDecided, and how many of them
// answered. The version is Pinned when some store that answered still has
// an undecided intention on id: a copy made from it may miss a commit.
func Newest(ctx context.Context, c rpc.Client, view []transport.Addr, skip transport.Addr, id uid.UID) (newest Version, answered int) {
	pinned := false
	for _, st := range view {
		if st == skip {
			continue
		}
		v, err := RemoteStore{Client: c, Node: st}.ReadDecided(ctx, id)
		if err != nil {
			continue
		}
		if answered++; answered == 1 || v.Seq > newest.Seq {
			newest = v
		}
		pinned = pinned || v.Pinned
	}
	newest.Pinned = pinned
	return newest, answered
}

// Put installs a committed version on the remote store.
func (r RemoteStore) Put(ctx context.Context, id uid.UID, data []byte, seq uint64) error {
	_, err := rpc.Invoke[PutReq, rpc.Empty](ctx, r.Client, r.Node, ServiceName, MethodPut, PutReq{UID: id.String(), Data: data, Seq: seq})
	return err
}

// Prepare records intentions at the remote store, or with onePhase commits
// the writes there in the same round. Version-chain refusals are mapped
// back to ErrStaleVersion (and ErrStoreBehind) for errors.Is.
func (r RemoteStore) Prepare(ctx context.Context, tx string, writes []Write, onePhase bool) error {
	recs := make([]WriteRec, len(writes))
	for i, w := range writes {
		recs[i] = WriteRec{UID: w.UID.String(), Data: w.Data, Seq: w.Seq}
	}
	_, err := rpc.Invoke[PrepareReq, rpc.Empty](ctx, r.Client, r.Node, ServiceName, MethodPrepare, PrepareReq{Tx: tx, Writes: recs, OnePhase: onePhase})
	return chainSentinels(err)
}

// ResolveDecided asks the remote store to settle pending intentions
// whose outcomes are affirmatively recorded at their coordinators.
func (r RemoteStore) ResolveDecided(ctx context.Context) (ResolveResp, error) {
	return rpc.Invoke[rpc.Empty, ResolveResp](ctx, r.Client, r.Node, ServiceName, MethodResolveDecided, rpc.Empty{})
}

// Commit applies tx at the remote store.
func (r RemoteStore) Commit(ctx context.Context, tx string) error {
	_, err := rpc.Invoke[TxReq, rpc.Empty](ctx, r.Client, r.Node, ServiceName, MethodCommit, TxReq{Tx: tx})
	return err
}

// Abort discards tx at the remote store.
func (r RemoteStore) Abort(ctx context.Context, tx string) error {
	_, err := rpc.Invoke[TxReq, rpc.Empty](ctx, r.Client, r.Node, ServiceName, MethodAbort, TxReq{Tx: tx})
	return err
}
