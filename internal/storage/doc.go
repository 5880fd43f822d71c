// Package storage is the stable-storage engine under the reproduction's
// "stable" state: committed object versions, prepared (undecided) 2PC
// intentions, and coordinator outcome records.
//
// # One image per node
//
// A node's stable contents have one in-memory image, the State its backend
// holds, and one transition function, applyRecord: every mutation is a
// record, which a Mem backend applies to the image and a Disk backend
// appends to its WAL and then applies, and which replay at open applies
// again. (A Stage that commits applies its records' net effect at once,
// applyStaged, where replay folds them record by record.) Nothing else
// changes the image, and no one keeps a second copy: Load returns the live
// State, and callers only read it. Two parties write it, each its own
// part, and each reads only its own part:
//
//   - store.Store, which opened the backend, writes the versions and the
//     intentions (and with them the pins), under its own mutex, and reads
//     them under that mutex alone;
//   - the node's coordinator outcome log (action.BackendLog) writes and
//     reads the outcomes, through the backend's methods and its lock.
//
// What survives a crash is exactly what the backend made durable.
//
// # The Backend contract
//
// A Backend persists three record kinds keyed by strings (object UIDs and
// transaction IDs in their canonical string forms):
//
//   - committed versions       (object -> data, seq, committing tx)
//   - prepared intentions      (tx -> object -> data, seq)
//   - transaction outcomes     (tx -> outcome code)
//
// The pin index (object -> tx of its prepared intention) is derived from
// the intentions by applyRecord and never recorded. Mutations are appended
// in call order; Sync makes every preceding mutation durable and is the
// caller's commit point (a store must Sync a prepared intention before
// voting commit, and a coordinator must Sync the commit record before
// phase two).
//
// Two implementations exist:
//
//   - Mem: the image behind a mutex. Nothing touches the filesystem; Sync
//     and Close are no-ops and the data survives Close, which models the
//     paper's simulation default where "stable" means "kept across the
//     simulated crash". Zero-dependency tests run on it unchanged.
//   - Disk: a real per-directory engine — append-only WAL plus periodic
//     snapshot — whose contents survive actual process death. A record
//     the WAL refuses (an I/O error) never reaches the image, and the
//     backend refuses all work from then on.
//
// # WAL record format
//
// The WAL and the snapshot share one framing:
//
//	u32le payload length | payload | u32le CRC-32 (IEEE) of the payload
//
// and one payload layout:
//
//	tag byte
//	uvarint len | tx bytes
//	uvarint len | id bytes
//	uvarint seq            (the outcome code for outcome records)
//	uvarint len | data bytes
//
// Unused fields are empty. Tags: version, delete-version, intention,
// commit-tx, abort-tx, outcome, delete-outcome. A commit-tx record folds
// the transaction's accumulated intention records into committed
// versions; an abort-tx record drops them.
// Only a commit with intentions to fold writes a commit-tx record: phase
// two, or a one-phase commit of several writes or beside earlier
// intentions; a lone one-phase write is its version record alone.
//
// The records of one store operation are appended together: Stage frames
// a prepare's intentions, or a one-phase commit's intentions and its
// commit record, into one buffer, which Disk writes with one write(2) and
// the store then syncs once. A crash can still cut the write anywhere, and
// replay keeps its whole records and drops the rest, as for any tail.
//
// # Crash safety
//
// Opening a Disk backend replays snapshot + WAL. The WAL tail is
// untrusted: replay stops at the first record whose frame is incomplete
// or whose CRC fails, and truncates the file there (a torn write from a
// crash mid-append loses only mutations that were never Synced — nothing
// the protocol acknowledged). The snapshot is written to a temporary
// file, fsynced and atomically renamed, so it is either absent or whole;
// WAL truncation happens after the rename. A crash between the two
// leaves pre-snapshot records in the WAL, which is harmless: every
// record's effect is deterministic and last-writer-wins per key, so
// replaying a WAL prefix that the snapshot already includes converges to
// the same state.
//
// The store's reference model (internal/store, TestStoreBackendsAgree)
// checks this from the bytes the engine wrote, with no help from it. After
// each operation it replays (Replay, the function OpenDisk opens with) the
// WAL cut at every byte of the records the operation appended, bare and
// followed by junk: a short length, an over-long one, garbage and a frame
// with a bad CRC. Each image must hold the records wholly before the cut
// and nothing after, and replay must keep exactly their bytes. At each
// compaction it opens the directory as each step leaves it: the new
// snapshot partly written to its temporary file, whole there but not
// renamed (the engine's own compaction with the rename blocked), renamed
// over a WAL not yet truncated, and with the WAL truncated. Each must
// open to the state at the compaction.
//
// # Group commit
//
// With DiskOptions.Sync == SyncGroup (the default), concurrent Sync
// callers coalesce: one caller runs the fsync while the others wait, and
// a single fsync acknowledges every mutation appended before it started.
// Under concurrent commit traffic this collapses N fsyncs into a few
// without weakening durability — a Sync never returns before the bytes
// it covers are on disk. SyncNone trusts the OS page cache (tests that
// only need the replay path).
package storage
