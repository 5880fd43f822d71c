package store

import (
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"repro/internal/storage"
	"repro/internal/uid"
)

// stubLog answers every lookup with a fixed outcome.
type stubLog Outcome

func (l stubLog) Lookup(string) Outcome { return Outcome(l) }

func diskStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenWith("st-disk", storage.DiskFactory(dir, storage.DiskOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDiskStoreShutdownDropsProcessState: after Shutdown nothing of the
// store's contents is reachable in process memory — reads fail closed —
// and Reopen replays everything from the directory.
func TestDiskStoreShutdownDropsProcessState(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	id := uid.UID{Origin: "obj", Epoch: 1, Seq: 1}
	if err := s.Put(id, []byte("v1"), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepare("tx-1", []Write{{UID: id, Data: []byte("v2"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(id); !errors.Is(err, ErrClosed) {
		t.Fatalf("read on shut-down store = %v, want ErrClosed", err)
	}
	if _, ok := s.SeqOf(id); ok {
		t.Fatal("SeqOf found state on a shut-down store")
	}
	if pend := s.PendingTxs(); len(pend) != 0 {
		t.Fatalf("pending intentions visible after shutdown: %v", pend)
	}
	if err := s.Prepare("tx-2", []Write{{UID: id, Data: []byte("x"), Seq: 2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("prepare on shut-down store = %v, want ErrClosed", err)
	}

	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read(id)
	if err != nil || string(v.Data) != "v1" || v.Seq != 1 {
		t.Fatalf("reloaded = %q/%d (%v), want v1/1", v.Data, v.Seq, err)
	}
	if pend := s.PendingTxs(); len(pend) != 1 || pend[0] != "tx-1" {
		t.Fatalf("reloaded pending = %v, want [tx-1]", pend)
	}
	// The reloaded intention still pins its object against other txs.
	if err := s.Prepare("tx-2", []Write{{UID: id, Data: []byte("x"), Seq: 2}}); !errors.Is(err, ErrBusy) {
		t.Fatalf("conflicting prepare after reload = %v, want ErrBusy", err)
	}
}

// TestDiskIntentionSurvivesUnavailableThenResolves: the in-doubt
// protocol over a real restart — a replayed prepared intention stays
// pending while the coordinator is unreachable (OutcomeUnavailable) and
// resolves once an affirmative answer arrives.
func TestDiskIntentionSurvivesUnavailableThenResolves(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	id := uid.UID{Origin: "obj", Epoch: 1, Seq: 1}
	if err := s.Put(id, []byte("0"), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepare("tx-doubt", []Write{{UID: id, Data: []byte("1"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}

	// Coordinator unreachable: the intention must survive the sweep.
	applied, aborted := s.Recover(stubLog(OutcomeUnavailable))
	if len(applied)+len(aborted) != 0 {
		t.Fatalf("unavailable coordinator resolved applied=%v aborted=%v", applied, aborted)
	}
	if pend := s.PendingTxs(); len(pend) != 1 {
		t.Fatalf("in-doubt intention gone: %v", pend)
	}

	// Another restart in between: still pending, still durable.
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	if pend := s.PendingTxs(); len(pend) != 1 {
		t.Fatalf("in-doubt intention lost across second restart: %v", pend)
	}

	// The coordinator finally answers: committed — the replayed intention
	// applies and the result is durable.
	applied, _ = s.Recover(stubLog(OutcomeCommitted))
	if len(applied) != 1 || applied[0] != "tx-doubt" {
		t.Fatalf("applied = %v, want [tx-doubt]", applied)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read(id)
	if err != nil || string(v.Data) != "1" || v.Seq != 2 || v.TxID != "tx-doubt" {
		t.Fatalf("final state = %+v (%v), want committed 1/2 by tx-doubt", v, err)
	}
	if pend := s.PendingTxs(); len(pend) != 0 {
		t.Fatalf("resolved intention still pending: %v", pend)
	}
}

// TestDiskReopenAfterTornTail: a torn write (junk after the last synced
// record) loses nothing that was acknowledged, and the store keeps working
// over the truncated WAL: what it writes next survives the next reopen.
func TestDiskReopenAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	id := uid.UID{Origin: "obj", Epoch: 1, Seq: 1}
	if err := s.Put(id, []byte("acked"), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepare("tx-p", []Write{{UID: id, Data: []byte("next"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append: a frame header promising bytes that never made
	// it to the platter.
	wal, err := os.OpenFile(storage.WALPath(dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write([]byte{0x40, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	wal.Close()
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read(id)
	if err != nil || string(v.Data) != "acked" || v.Seq != 1 {
		t.Fatalf("state after torn tail = %q/%d (%v), want acked/1", v.Data, v.Seq, err)
	}
	if pend := s.PendingTxs(); len(pend) != 1 || pend[0] != "tx-p" {
		t.Fatalf("acked intention lost to torn tail: %v", pend)
	}
	// The store keeps working: resolve and extend the chain.
	if err := s.Commit("tx-p"); err != nil {
		t.Fatal(err)
	}
	for reopened := false; ; reopened = true {
		if v, _ := s.Read(id); string(v.Data) != "next" || v.Seq != 2 || v.Pinned {
			t.Fatalf("post-recovery commit (reopened %v) = %+v, want next/2", reopened, v)
		}
		if reopened {
			break
		}
		if err := s.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if err := s.Reopen(); err != nil {
			t.Fatal(err)
		}
	}
}

// walTags lists the tag byte of every whole record in dir's WAL, in file
// order (see the record format in internal/storage), and the WAL's length.
func walTags(t *testing.T, dir string) ([]byte, int) {
	t.Helper()
	buf, err := os.ReadFile(storage.WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var tags []byte
	for i := 0; i+4 <= len(buf); {
		n := int(binary.LittleEndian.Uint32(buf[i:]))
		if n == 0 || i+4+n+4 > len(buf) {
			break
		}
		tags = append(tags, buf[i+4])
		i += 4 + n + 4
	}
	return tags, len(buf)
}

// TestDiskOnePhaseCommitRecords: a one-phase commit of one write, in a
// transaction with no earlier intentions, appends one committed-version
// record and no commit record — a torn tail takes that record away whole,
// never half of it. A one-phase commit that folds earlier intentions of its
// transaction, or several writes, stages its writes and folds them all
// with one commit record, as ever.
func TestDiskOnePhaseCommitRecords(t *testing.T) {
	const tagVersion, tagIntention, tagCommitTx = 1, 3, 4
	dir := t.TempDir()
	s := diskStore(t, dir)
	x, y := uid.UID{Origin: "obj", Epoch: 1, Seq: 1}, uid.UID{Origin: "obj", Epoch: 1, Seq: 2}
	for _, id := range []uid.UID{x, y} {
		if err := s.Put(id, []byte("0"), 1); err != nil {
			t.Fatal(err)
		}
	}
	appended := func(op func() error) []byte {
		t.Helper()
		before, _ := walTags(t, dir)
		if err := op(); err != nil {
			t.Fatal(err)
		}
		after, _ := walTags(t, dir)
		return after[len(before):]
	}

	lone := appended(func() error { return s.CommitOnePhase("tx-lone", []Write{{UID: x, Data: []byte("1"), Seq: 2}}) })
	if string(lone) != string([]byte{tagVersion}) {
		t.Fatalf("a lone one-phase write appended records %v, want one version record", lone)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_, size := walTags(t, dir)
	if err := os.Truncate(storage.WALPath(dir), int64(size-1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Read(x); err != nil || string(v.Data) != "0" || v.Seq != 1 {
		t.Fatalf("after the torn record: %+v (%v), want 0/1", v, err)
	}
	if pend := s.PendingTxs(); len(pend) != 0 {
		t.Fatalf("the torn record left %v pending", pend)
	}

	if err := s.Prepare("tx-fold", []Write{{UID: x, Data: []byte("2"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	fold := appended(func() error { return s.CommitOnePhase("tx-fold", []Write{{UID: y, Data: []byte("2"), Seq: 2}}) })
	if string(fold) != string([]byte{tagIntention, tagCommitTx}) {
		t.Fatalf("a one-phase write beside an earlier intention appended records %v, want intention, commit", fold)
	}
	several := appended(func() error {
		return s.CommitOnePhase("tx-two", []Write{{UID: x, Data: []byte("3"), Seq: 3}, {UID: y, Data: []byte("3"), Seq: 3}})
	})
	if string(several) != string([]byte{tagIntention, tagIntention, tagCommitTx}) {
		t.Fatalf("a one-phase commit of two writes appended records %v, want two intentions, commit", several)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uid.UID{x, y} {
		if v, err := s.Read(id); err != nil || string(v.Data) != "3" || v.Seq != 3 || v.TxID != "tx-two" {
			t.Fatalf("%v after reopen: %+v (%v), want 3/3 by tx-two", id, v, err)
		}
	}
}

// TestDiskOneWALWritePerOperation: each store operation appends all its
// records to the WAL with one write(2) — a prepare of several writes its
// intentions, a one-phase commit of several its intentions and its commit
// record.
func TestDiskOneWALWritePerOperation(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	disk := s.Backend().(*storage.Disk)
	x, y, z := uid.UID{Origin: "obj", Epoch: 1, Seq: 1}, uid.UID{Origin: "obj", Epoch: 1, Seq: 2}, uid.UID{Origin: "obj", Epoch: 1, Seq: 3}
	for _, c := range []struct {
		name    string
		op      func() error
		records int
	}{
		{"put", func() error { return s.Put(x, []byte("1"), 1) }, 1},
		{"one-phase commit of one write", func() error {
			return s.CommitOnePhase("tx-1", []Write{{UID: y, Data: []byte("1"), Seq: 1}})
		}, 1},
		{"one-phase commit of three writes", func() error {
			return s.CommitOnePhase("tx-3", []Write{{UID: x, Data: []byte("2"), Seq: 2}, {UID: y, Data: []byte("2"), Seq: 2}, {UID: z, Data: []byte("1"), Seq: 1}})
		}, 4},
		{"prepare of two writes", func() error {
			return s.Prepare("tx-p", []Write{{UID: x, Data: []byte("3"), Seq: 3}, {UID: y, Data: []byte("3"), Seq: 3}})
		}, 2},
		{"commit", func() error { return s.Commit("tx-p") }, 1},
		{"prepare of nothing", func() error { return s.Prepare("tx-0", nil) }, 0},
	} {
		tags, _ := walTags(t, dir)
		writes := disk.WALWrites()
		if err := c.op(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		after, _ := walTags(t, dir)
		want := uint64(min(c.records, 1))
		if got := disk.WALWrites() - writes; got != want || len(after)-len(tags) != c.records {
			t.Errorf("%s: %d records in %d WAL writes, want %d in %d", c.name, len(after)-len(tags), got, c.records, want)
		}
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uid.UID{x, y} {
		if v, err := s.Read(id); err != nil || string(v.Data) != "3" || v.Seq != 3 || v.TxID != "tx-p" {
			t.Fatalf("%v after reopen: %+v (%v), want 3/3 by tx-p", id, v, err)
		}
	}
}

// TestDiskStoreCompacts: a long commit history stays bounded on disk and
// replays correctly through the snapshot.
func TestDiskStoreCompacts(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith("st-disk", storage.DiskFactory(dir, storage.DiskOptions{Sync: storage.SyncNone, CompactAt: 1024}))
	if err != nil {
		t.Fatal(err)
	}
	id := uid.UID{Origin: "obj", Epoch: 1, Seq: 1}
	if err := s.Put(id, []byte("0"), 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		tx := uid.UID{Origin: "c1", Epoch: 1, Seq: uint64(i + 1)}.String()
		data := []byte{byte('a' + i%26)}
		if err := s.Prepare(tx, []Write{{UID: id, Data: data, Seq: uint64(i + 2)}}); err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
		if err := s.Commit(tx); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read(id)
	if err != nil || v.Seq != 301 {
		t.Fatalf("after 300 commits: %+v (%v), want seq 301", v, err)
	}
}

// failingBackend fails the n-th mutation written through it (counting from
// 1) without passing it on; the ones before it land.
type failingBackend struct {
	storage.Backend
	n int
}

var errInjected = errors.New("injected write failure")

func (f *failingBackend) mutate(write func() error) error {
	if f.n--; f.n == 0 {
		return errInjected
	}
	return write()
}

func (f *failingBackend) PutVersion(id string, v storage.Version) error {
	return f.mutate(func() error { return f.Backend.PutVersion(id, v) })
}

func (f *failingBackend) DeleteVersion(id string) error {
	return f.mutate(func() error { return f.Backend.DeleteVersion(id) })
}

func (f *failingBackend) PutIntention(tx, id string, w storage.Write) error {
	return f.mutate(func() error { return f.Backend.PutIntention(tx, id, w) })
}

func (f *failingBackend) CommitTx(tx string) error {
	return f.mutate(func() error { return f.Backend.CommitTx(tx) })
}

func (f *failingBackend) AbortTx(tx string) error {
	return f.mutate(func() error { return f.Backend.AbortTx(tx) })
}

// Stage writes its records one by one, so that each can fail.
func (f *failingBackend) Stage(tx string, writes []storage.Intention, commit bool) error {
	for _, w := range writes {
		if err := f.PutIntention(tx, w.ID, w.Write); err != nil {
			return err
		}
	}
	if commit {
		return f.CommitTx(tx)
	}
	return nil
}

// TestStoreFailedWriteAnswersNothingUntilReopened fails each backend write
// of a two-write Prepare and of a two-write one-phase commit in turn, on
// Mem and on Disk. The writes before the failed one are in the image, so
// until it is reopened the store answers nothing: no read may show an
// intention, or a pin, of an operation that failed. Reopened, it answers
// again. (What a crash between the records leaves is the reference model's:
// TestStoreBackendsAgree checks every byte of every operation.)
func TestStoreFailedWriteAnswersNothingUntilReopened(t *testing.T) {
	a, b := uid.UID{Origin: "obj", Epoch: 1, Seq: 1}, uid.UID{Origin: "obj", Epoch: 1, Seq: 2}
	writes := []Write{{UID: a, Data: []byte("a2"), Seq: 2}, {UID: b, Data: []byte("b2"), Seq: 2}}
	ops := map[string]struct {
		records int
		run     func(s *Store) error
	}{
		"prepare":          {2, func(s *Store) error { return s.Prepare("tx", writes) }},
		"commit-one-phase": {3, func(s *Store) error { return s.CommitOnePhase("tx", writes) }},
	}
	backends := map[string]func() storage.Factory{
		"mem": storage.MemFactory,
		"disk": func() storage.Factory {
			return storage.DiskFactory(t.TempDir(), storage.DiskOptions{Sync: storage.SyncNone})
		},
	}
	for bname, backend := range backends {
		for name, op := range ops {
			for fail := 1; fail <= op.records; fail++ {
				f := backend()
				fb := &failingBackend{}
				s, err := OpenWith("st", func() (storage.Backend, error) {
					inner, err := f()
					fb.Backend = inner
					return fb, err
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range []uid.UID{a, b} {
					if err := s.Put(id, []byte("1"), 1); err != nil {
						t.Fatal(err)
					}
				}
				fb.n = fail
				if err := op.run(s); !errors.Is(err, errInjected) {
					t.Fatalf("%s, %s, write %d failed: the operation returned %v", bname, name, fail, err)
				}
				if _, err := s.Read(a); !errors.Is(err, ErrClosed) {
					t.Fatalf("%s, %s, write %d failed: read = %v, want ErrClosed", bname, name, fail, err)
				}
				if _, ok := s.SeqOf(b); ok {
					t.Fatalf("%s, %s, write %d failed: SeqOf answered", bname, name, fail)
				}
				if pend := s.PendingTxs(); len(pend) != 0 {
					t.Fatalf("%s, %s, write %d failed: pending = %v", bname, name, fail, pend)
				}
				if err := s.Put(a, []byte("x"), 9); !errors.Is(err, ErrClosed) {
					t.Fatalf("%s, %s, write %d failed: a later put = %v, want ErrClosed", bname, name, fail, err)
				}
				if err := s.Shutdown(); err != nil {
					t.Fatal(err)
				}
				if err := s.Reopen(); err != nil {
					t.Fatal(err)
				}
				if v, err := s.Read(a); err != nil || string(v.Data) != "1" {
					t.Fatalf("%s, %s, write %d failed: read after reopen = %+v, %v", bname, name, fail, v, err)
				}
				s.Shutdown()
			}
		}
	}
}
