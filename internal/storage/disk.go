package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// SyncMode selects how Disk.Sync reaches the platter.
type SyncMode int

// Sync modes.
const (
	// SyncGroup (the default) coalesces concurrent Sync calls: one
	// caller fsyncs on behalf of everyone whose mutations were already
	// appended when the fsync started.
	SyncGroup SyncMode = iota
	// SyncNone never fsyncs; durability is left to the OS page cache.
	// For tests that only need the replay path.
	SyncNone
)

// String implements fmt.Stringer.
func (m SyncMode) String() string {
	switch m {
	case SyncGroup:
		return "group"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("syncmode(%d)", int(m))
	}
}

// DiskOptions tunes a Disk backend.
type DiskOptions struct {
	// Sync selects the fsync discipline (default SyncGroup).
	Sync SyncMode
	// CompactAt is the WAL size in bytes that triggers a snapshot +
	// WAL truncation. 0 means the 1 MiB default; negative disables
	// compaction.
	CompactAt int64
}

const defaultCompactAt = 1 << 20

// ErrLocked reports that another live backend holds the directory: two
// writers interleaving appends into one WAL would corrupt it, so a
// directory admits one open Disk at a time (the flock dies with its
// process, so crashes never leave a stale lock).
var ErrLocked = errors.New("storage: directory is locked")

// LockPath returns the lock file path inside a Disk backend directory.
func LockPath(dir string) string { return filepath.Join(dir, "lock") }

// WALPath returns the WAL file path inside a Disk backend directory.
func WALPath(dir string) string { return filepath.Join(dir, "wal") }

// SnapshotPath returns the snapshot file path inside a Disk backend
// directory.
func SnapshotPath(dir string) string { return filepath.Join(dir, "snapshot") }

// Disk is the durable Backend: one directory holding an append-only WAL
// and a periodic snapshot. See the package documentation for the record
// format and the crash-safety argument.
type Disk struct {
	mutations
	dir  string
	opts DiskOptions

	// appendGen counts the WAL's appends, one write(2) each; the
	// group-commit path reads it outside mu to know which generation an
	// fsync must cover.
	appendGen atomic.Uint64

	mu      sync.Mutex // guards the fields below and WAL writes
	lock    *os.File   // held flock on the directory
	wal     *os.File
	walSize int64
	state   *State
	closed  bool
	scratch []byte
	// failed is the first WAL write or fsync error; the backend refuses
	// all work from then on (see sync).
	failed error

	// Group commit.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	synced   uint64 // highest appendGen known durable
	syncing  bool
}

// OpenDisk opens (creating if needed) the engine rooted at dir and
// replays snapshot + WAL, truncating any torn WAL tail.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	if opts.CompactAt == 0 {
		opts.CompactAt = defaultCompactAt
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", dir, err)
	}
	fail := func(err error) (*Disk, error) {
		lock.Close()
		return nil, err
	}
	snap, err := os.ReadFile(SnapshotPath(dir))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fail(fmt.Errorf("storage: %w", err))
	}
	wal, err := os.OpenFile(WALPath(dir), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fail(fmt.Errorf("storage: %w", err))
	}
	buf, err := os.ReadFile(WALPath(dir))
	if err != nil {
		wal.Close()
		return fail(fmt.Errorf("storage: %w", err))
	}
	state, clean, err := Replay(snap, buf)
	if err != nil {
		wal.Close()
		return fail(fmt.Errorf("storage: %s: %w", dir, err))
	}
	if clean < int64(len(buf)) {
		// Torn tail: a crash mid-append left a partial or corrupt frame.
		// Everything before it is intact; drop the tail.
		if err := wal.Truncate(clean); err != nil {
			wal.Close()
			return fail(fmt.Errorf("storage: truncate torn tail: %w", err))
		}
	}
	if _, err := wal.Seek(clean, 0); err != nil {
		wal.Close()
		return fail(fmt.Errorf("storage: %w", err))
	}
	d := &Disk{dir: dir, opts: opts, lock: lock, state: state, wal: wal, walSize: clean}
	d.mutations = mutations{d.append}
	d.syncCond = sync.NewCond(&d.syncMu)
	return d, nil
}

// Replay rebuilds the image a Disk directory's files hold: the snapshot,
// which must decode whole (it is written atomically), then the WAL's clean
// prefix, which ends at the first torn or corrupt frame. It returns the
// image and the length of that prefix; OpenDisk truncates the WAL there.
func Replay(snapshot, wal []byte) (*State, int64, error) {
	st := NewState()
	apply := func(r record) { applyRecord(st, r) }
	if _, err := scanRecords(snapshot, true, apply); err != nil {
		return nil, 0, fmt.Errorf("snapshot: %w", err)
	}
	clean, _ := scanRecords(wal, false, apply)
	return st, clean, nil
}

// DiskFactory returns a Factory that opens dir with opts — the reopen
// hook a disk-backed node's recovery uses.
func DiskFactory(dir string, opts DiskOptions) Factory {
	return func() (Backend, error) { return OpenDisk(dir, opts) }
}

// append frames r, writes it to the WAL and only then applies it to the
// image: a record the WAL refused never reaches it. The caller's later Sync
// makes it durable.
func (d *Disk) append(r record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.writeLocked(appendRecord(d.scratch[:0], r)); err != nil {
		return err
	}
	applyRecord(d.state, r)
	return nil
}

// Stage implements Backend: it frames every record of the operation, writes
// them to the WAL with one write(2), and only then applies them.
func (d *Disk) Stage(tx string, writes []Intention, commit bool) error {
	if len(writes) == 0 && !commit {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	buf := d.scratch[:0]
	staged(tx, writes, commit, func(r record) { buf = appendRecord(buf, r) })
	if err := d.writeLocked(buf); err != nil {
		return err
	}
	applyStaged(d.state, tx, writes, commit)
	return nil
}

// writeLocked appends frames, one or more whole records, to the WAL in one
// write(2) and keeps them as the scratch for the next. A write that fails
// fails the backend. d.mu held.
func (d *Disk) writeLocked(frames []byte) error {
	d.scratch = frames
	if d.closed {
		return ErrClosed
	}
	if d.failed != nil {
		return d.failed
	}
	n, err := d.wal.Write(frames)
	d.walSize += int64(n)
	if err != nil {
		d.failed = fmt.Errorf("storage: wal append: %w", err)
		return d.failed
	}
	d.appendGen.Add(1)
	return nil
}

// maybeCompact runs a compaction when the WAL has outgrown the
// threshold. It is called from Sync — after the caller's durability is
// settled and outside any caller-held mutex above the backend — so the
// multi-fsync snapshot write never sits on the append path. A failed
// compaction is retried at the next Sync (the WAL just stays longer).
func (d *Disk) maybeCompact() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.failed != nil || d.opts.CompactAt <= 0 || d.walSize < d.opts.CompactAt {
		return
	}
	_ = d.compactLocked()
}

// Load implements Backend.
func (d *Disk) Load() (*State, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	return d.state, nil
}

// Outcome implements Backend.
func (d *Disk) Outcome(tx string) (uint8, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, false, ErrClosed
	}
	o, ok := d.state.Outcomes[tx]
	return o, ok, nil
}

// Sync implements Backend: it returns only once every mutation appended
// before the call is durable (per the configured SyncMode). It also
// triggers WAL compaction when the threshold is crossed — here rather
// than in append, so the snapshot's fsyncs never run under a caller's
// higher-level mutex.
func (d *Disk) Sync() error {
	if err := d.sync(); err != nil {
		return err
	}
	d.maybeCompact()
	return nil
}

func (d *Disk) sync() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if d.failed != nil {
		err := d.failed
		d.mu.Unlock()
		return err
	}
	mode, wal := d.opts.Sync, d.wal
	d.mu.Unlock()
	if mode == SyncNone {
		return nil
	}

	// Group commit: wait until an fsync round covers our generation,
	// running the round ourselves if nobody else is. A round's error is
	// reported only by the caller that ran it: a waiter woken by a
	// failed round sees synced still short of its target, takes over,
	// and retries the fsync itself — its own data may well be durable
	// regardless of someone else's failed round, and once covered by a
	// successful round it must return nil.
	target := d.appendGen.Load()
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	for d.synced < target {
		if d.syncing {
			d.syncCond.Wait()
			continue
		}
		// Before running a round, re-check the poison set by a failed
		// round: a later fsync returning nil cannot prove the dropped
		// pages made it, so a poisoned backend never re-acknowledges.
		d.syncMu.Unlock()
		d.mu.Lock()
		ferr := d.failed
		d.mu.Unlock()
		d.syncMu.Lock()
		if ferr != nil {
			return ferr
		}
		if d.syncing || d.synced >= target {
			continue // someone else moved while we checked
		}
		d.syncing = true
		d.syncMu.Unlock()
		// Everything appended up to here rides this fsync: bytes written
		// before the fsync starts are covered when it returns.
		cover := d.appendGen.Load()
		err := wal.Sync()
		if err != nil {
			// Poison the backend: a failed fsync may have dropped dirty
			// pages the kernel will never retry (the error flag is
			// consumed), so anything appended but unsynced is now a
			// potential hole, and a retry that happens to return nil must
			// not resurrect the durability claim. The backend refuses
			// further work instead; reopen replays exactly the durable
			// prefix. Lock order is syncMu→mu here; no path holds mu
			// while taking syncMu.
			d.mu.Lock()
			if d.failed == nil {
				d.failed = fmt.Errorf("storage: wal fsync: %w", err)
			}
			d.mu.Unlock()
		}
		d.syncMu.Lock()
		if err == nil && cover > d.synced {
			d.synced = cover
		}
		d.syncing = false
		d.syncCond.Broadcast()
		if err != nil {
			return err
		}
	}
	return nil
}

// Compact snapshots the current state and truncates the WAL. It runs
// automatically when the WAL passes DiskOptions.CompactAt; tests call it
// directly.
func (d *Disk) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.failed != nil {
		return d.failed
	}
	return d.compactLocked()
}

// compactLocked writes the snapshot (tmp + fsync + atomic rename) and
// then truncates the WAL. A crash between rename and truncate leaves
// already-snapshotted records in the WAL; replaying them over the
// snapshot converges to the same state (see the package doc), so the
// order is safe.
func (d *Disk) compactLocked() error {
	tmp := SnapshotPath(d.dir) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	_, werr := f.Write(encodeState(d.state))
	if werr == nil && d.opts.Sync != SyncNone {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: compact: %w", werr)
	}
	if err := os.Rename(tmp, SnapshotPath(d.dir)); err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	syncDir(d.dir)
	if err := d.wal.Truncate(0); err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	if _, err := d.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	d.walSize = 0
	return nil
}

// syncDir fsyncs a directory so a rename is durable; best effort on
// platforms where directories cannot be fsynced.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		f.Close()
	}
}

// Close implements Backend: flush, then close the WAL. Further
// operations return ErrClosed; reopening the directory replays.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	if d.failed == nil && d.opts.Sync != SyncNone {
		err = d.wal.Sync()
	}
	if cerr := d.wal.Close(); err == nil {
		err = cerr
	}
	// Closing the lock file releases the flock, admitting the next open.
	if cerr := d.lock.Close(); err == nil {
		err = cerr
	}
	return err
}

// WALSize returns the current WAL length in bytes.
func (d *Disk) WALSize() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.walSize
}

// WALWrites returns how many times the WAL has been appended to since the
// backend opened: one write(2) per single-record mutation, and one per
// Stage whatever its records.
func (d *Disk) WALWrites() uint64 { return d.appendGen.Load() }
