package storage

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
)

// fill applies a representative mutation history: direct versions, an
// intention that commits, an intention that aborts, one left pending,
// outcomes recorded and one pruned.
func fill(t *testing.T, b Backend) {
	t.Helper()
	steps := []error{
		b.PutVersion("obj:1:1", Version{Data: []byte("v1"), Seq: 1}),
		b.PutVersion("obj:1:2", Version{Data: []byte("x"), Seq: 1}),
		b.DeleteVersion("obj:1:2"),
		b.PutIntention("tx-c", "obj:1:1", Write{Data: []byte("v2"), Seq: 2}),
		b.CommitTx("tx-c"),
		b.PutIntention("tx-a", "obj:1:1", Write{Data: []byte("bad"), Seq: 3}),
		b.AbortTx("tx-a"),
		b.PutIntention("tx-p", "obj:1:3", Write{Data: []byte("pending"), Seq: 1}),
		b.PutOutcome("tx-c", 1),
		b.PutOutcome("tx-old", 2),
		b.DeleteOutcome("tx-old"),
		b.Sync(),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// checkFilled asserts the state fill must produce, on any backend and
// across any number of close/reopen cycles.
func checkFilled(t *testing.T, st *State) {
	t.Helper()
	if v := st.Versions["obj:1:1"]; string(v.Data) != "v2" || v.Seq != 2 || v.Tx != "tx-c" {
		t.Fatalf("obj:1:1 = %+v, want committed v2/2 by tx-c", v)
	}
	if _, ok := st.Versions["obj:1:2"]; ok {
		t.Fatal("deleted version resurrected")
	}
	if len(st.Intentions) != 1 || len(st.Intentions["tx-p"]) != 1 {
		t.Fatalf("intentions = %+v, want only tx-p pending", st.Intentions)
	}
	if w := st.Intentions["tx-p"]["obj:1:3"]; string(w.Data) != "pending" || w.Seq != 1 {
		t.Fatalf("pending write = %+v", w)
	}
	if o, ok := st.Outcomes["tx-c"]; !ok || o != 1 {
		t.Fatalf("outcome tx-c = %d,%v want 1,true", o, ok)
	}
	if _, ok := st.Outcomes["tx-old"]; ok {
		t.Fatal("pruned outcome resurrected")
	}
}

func TestMemBackendRoundTrip(t *testing.T) {
	f := MemFactory()
	b, _ := f()
	fill(t, b)
	st, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	checkFilled(t, st)
	// Close keeps the data; the factory hands back the same instance.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, _ := f()
	st2, err := b2.Load()
	if err != nil {
		t.Fatal(err)
	}
	checkFilled(t, st2)
}

func TestDiskReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range []SyncMode{SyncGroup, SyncNone} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := fmt.Sprintf("%s/%s", dir, mode)
			b, err := OpenDisk(dir, DiskOptions{Sync: mode})
			if err != nil {
				t.Fatal(err)
			}
			fill(t, b)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b2, err := OpenDisk(dir, DiskOptions{Sync: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer b2.Close()
			st, err := b2.Load()
			if err != nil {
				t.Fatal(err)
			}
			checkFilled(t, st)
			if o, ok, _ := b2.Outcome("tx-c"); !ok || o != 1 {
				t.Fatalf("Outcome(tx-c) = %d,%v", o, ok)
			}
		})
	}
}

// TestDiskTornTailTruncated: junk after the last full record — the image
// a crash mid-append leaves — is truncated at open and everything before
// it survives.
func TestDiskTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, b)
	b.Close()
	for i, junk := range [][]byte{
		{0x01},                         // short length prefix
		{0x64, 0x00, 0x00, 0x00, 0xAA}, // promises 100 bytes, has 1
		bytes.Repeat([]byte{0xFF}, 64), // garbage "length" and body
		append([]byte{9, 0, 0, 0}, bytes.Repeat([]byte{0}, 13)...), // full frame, bad CRC
	} {
		clean, err := os.ReadFile(WALPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(WALPath(dir), append(clean, junk...), 0o644); err != nil {
			t.Fatal(err)
		}
		b2, err := OpenDisk(dir, DiskOptions{})
		if err != nil {
			t.Fatalf("junk %d: open: %v", i, err)
		}
		if size := b2.WALSize(); size != int64(len(clean)) {
			t.Fatalf("junk %d: the open kept %d WAL bytes, want the %d before the junk", i, size, len(clean))
		}
		st, err := b2.Load()
		if err != nil {
			t.Fatal(err)
		}
		checkFilled(t, st)
		b2.Close() // next iteration corrupts the now-clean file again
	}
}

// TestDiskCompactionAndCrashBetweenRenameAndTruncate: compaction
// snapshots and truncates; restoring the pre-compaction WAL next to the
// new snapshot (the crash-between-rename-and-truncate image) must replay
// to the same state.
func TestDiskCompactionAndCrashBetweenRenameAndTruncate(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDisk(dir, DiskOptions{CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, b)
	walImage, err := os.ReadFile(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := b.WALSize(); got != 0 {
		t.Fatalf("WAL size after compact = %d, want 0", got)
	}
	// Post-compaction mutations land in the truncated WAL.
	if err := b.PutVersion("obj:1:9", Version{Data: []byte("late"), Seq: 1}); err != nil {
		t.Fatal(err)
	}
	b.Close()

	// Clean reopen: snapshot + fresh WAL.
	b2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := b2.Load()
	if err != nil {
		t.Fatal(err)
	}
	checkFilled(t, st)
	if v := st.Versions["obj:1:9"]; string(v.Data) != "late" {
		t.Fatalf("post-compaction write lost: %+v", v)
	}
	b2.Close()

	// Crash image: the old WAL (already folded into the snapshot) back in
	// place, plus nothing else. Replay must converge to the same state.
	if err := os.WriteFile(WALPath(dir), walImage, 0o644); err != nil {
		t.Fatal(err)
	}
	b3, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b3.Close()
	st3, err := b3.Load()
	if err != nil {
		t.Fatal(err)
	}
	checkFilled(t, st3)
}

// TestDiskAutoCompaction: the WAL stays bounded under a write stream
// once it crosses CompactAt.
func TestDiskAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDisk(dir, DiskOptions{Sync: SyncNone, CompactAt: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("obj:1:%d", i%5)
		if err := b.PutVersion(id, Version{Data: bytes.Repeat([]byte{'x'}, 32), Seq: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		// Compaction triggers from Sync (it must never run under a
		// caller's mutex on the append path), as every store op syncs.
		if err := b.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if sz := b.WALSize(); sz >= 1024 {
		t.Fatalf("WAL grew to %d bytes despite CompactAt=512", sz)
	}
	if _, err := os.Stat(SnapshotPath(dir)); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	st, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if v := st.Versions["obj:1:4"]; v.Seq != 200 {
		t.Fatalf("latest version lost across compactions: %+v", v)
	}
}

// TestDiskGroupCommitCoalesces: concurrent Sync callers finish with
// every append durable, and group mode issues no more fsyncs than
// callers (typically far fewer — asserted loosely to stay robust).
func TestDiskGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDisk(dir, DiskOptions{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("obj:%d:%d", w+1, i+1)
				if err := b.PutVersion(id, Version{Data: []byte("d"), Seq: 1}); err != nil {
					errs[w] = err
					return
				}
				if err := b.Sync(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	b.Close()
	b2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	st, err := b2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Versions) != workers*rounds {
		t.Fatalf("replayed %d versions, want %d", len(st.Versions), workers*rounds)
	}
}

// TestRecordRoundTrip: every tag survives encode → scan.
func TestRecordRoundTrip(t *testing.T) {
	recs := []record{
		{tag: recVersion, id: "obj:1:1", tx: "tx", seq: 7, data: []byte("payload")},
		{tag: recDeleteVersion, id: "obj:1:1"},
		{tag: recIntention, tx: "tx", id: "obj:1:2", seq: 9, data: []byte{}},
		{tag: recCommitTx, tx: "tx"},
		{tag: recAbortTx, tx: "tx"},
		{tag: recOutcome, tx: "tx", seq: 2},
		{tag: recDeleteOutcome, tx: "tx"},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	var got []record
	n, err := scanRecords(buf, true, func(r record) { got = append(got, r) })
	if err != nil || n != int64(len(buf)) {
		t.Fatalf("scan = %d,%v want %d,nil", n, err, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		g := got[i]
		if g.tag != r.tag || g.tx != r.tx || g.id != r.id || g.seq != r.seq || !bytes.Equal(g.data, r.data) {
			t.Fatalf("record %d: %+v != %+v", i, g, r)
		}
	}
}

// TestDiskDirectoryLockedAgainstDualOpen: a directory admits one live
// backend; a second open is refused until the first closes (two writers
// interleaving one WAL would corrupt it).
func TestDiskDirectoryLockedAgainstDualOpen(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(dir, DiskOptions{}); err == nil {
		t.Fatal("second open of a live directory succeeded")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	b2.Close()
}
