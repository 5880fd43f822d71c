package store_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/action"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/uid"
)

// The store's reference model. spec is what one node's stable store must
// hold: a version chain per object, the prepared intentions of each
// transaction (an intention pins its object), and the outcome records the
// node's coordinator log keeps on the same backend. An operation's effect
// on it is a list of steps, one per record the operation appends, so that
// a crash between two of an operation's records has a spec state too: the
// steps before the cut, whose intentions stay pending until Recover
// settles them.

type specVersion struct {
	data string
	seq  uint64
	tx   string
}

type specWrite struct {
	data string
	seq  uint64
}

type spec struct {
	versions map[string]specVersion
	intents  map[string]map[string]specWrite
	outcomes map[string]uint8
}

// step is one record's effect on the spec.
type step func(*spec)

func newSpec() *spec {
	return &spec{versions: map[string]specVersion{}, intents: map[string]map[string]specWrite{}, outcomes: map[string]uint8{}}
}

func (sp *spec) clone() *spec {
	c := &spec{versions: maps.Clone(sp.versions), intents: map[string]map[string]specWrite{}, outcomes: maps.Clone(sp.outcomes)}
	for tx, in := range sp.intents {
		c.intents[tx] = maps.Clone(in)
	}
	return c
}

func setVersion(key string, v specVersion) step { return func(sp *spec) { sp.versions[key] = v } }
func dropVersion(key string) step               { return func(sp *spec) { delete(sp.versions, key) } }
func setOutcome(tx string, o uint8) step        { return func(sp *spec) { sp.outcomes[tx] = o } }
func dropOutcome(tx string) step                { return func(sp *spec) { delete(sp.outcomes, tx) } }
func abortTx(tx string) step                    { return func(sp *spec) { delete(sp.intents, tx) } }

func addIntent(tx, key string, w specWrite) step {
	return func(sp *spec) {
		if sp.intents[tx] == nil {
			sp.intents[tx] = map[string]specWrite{}
		}
		sp.intents[tx][key] = w
	}
}

func commitTx(tx string) step {
	return func(sp *spec) {
		for key, w := range sp.intents[tx] {
			sp.versions[key] = specVersion{w.data, w.seq, tx}
		}
		delete(sp.intents, tx)
	}
}

// pinner returns the transaction whose intention pins key.
func (sp *spec) pinner(key string) (string, bool) {
	for tx, in := range sp.intents {
		if _, ok := in[key]; ok {
			return tx, true
		}
	}
	return "", false
}

func (sp *spec) pending() []string { return slices.Sorted(maps.Keys(sp.intents)) }

// admit is Prepare's and CommitOnePhase's admission: no other transaction
// pins a written object, and each write extends its object's chain by one.
func (sp *spec) admit(tx string, ws []store.Write) string {
	for _, w := range ws {
		key := w.UID.String()
		if other, ok := sp.pinner(key); ok && other != tx {
			return "busy"
		}
		if cur, ok := sp.versions[key]; ok && w.Seq != cur.seq+1 {
			if w.Seq > cur.seq+1 {
				return "behind"
			}
			return "stale"
		}
	}
	return "ok"
}

func stage(tx string, ws []store.Write) []step {
	var steps []step
	for _, w := range ws {
		steps = append(steps, addIntent(tx, w.UID.String(), specWrite{string(w.Data), w.Seq}))
	}
	return steps
}

func (sp *spec) prepare(tx string, ws []store.Write) (string, []step) {
	if r := sp.admit(tx, ws); r != "ok" {
		return r, nil
	}
	return "ok", stage(tx, ws)
}

// commitOnePhase: a lone write beside no intention of its transaction is
// one version record; anything more is staged and folded by one commit
// record, so that a crash leaves all of it or none committed.
func (sp *spec) commitOnePhase(tx string, ws []store.Write) (string, []step) {
	if r := sp.admit(tx, ws); r != "ok" {
		return r, nil
	}
	if len(ws) == 1 && len(sp.intents[tx]) == 0 {
		return "ok", []step{setVersion(ws[0].UID.String(), specVersion{string(ws[0].Data), ws[0].Seq, tx})}
	}
	return "ok", append(stage(tx, ws), commitTx(tx))
}

// settle is Commit (or Abort, with commit false): a record only for a
// transaction that has intentions.
func (sp *spec) settle(tx string, commit bool) []step {
	switch _, ok := sp.intents[tx]; {
	case !ok:
		return nil
	case commit:
		return []step{commitTx(tx)}
	}
	return []step{abortTx(tx)}
}

// resolve is ResolveDecided, or Recover with presumeAbort: each pending
// transaction, in order, commits or aborts as its outcome says, and one
// without a record aborts only when abort is presumed.
func (sp *spec) resolve(lookup func(string) store.Outcome, presumeAbort bool) (string, []step) {
	var applied, aborted []string
	var steps []step
	for _, tx := range sp.pending() {
		switch o := lookup(tx); {
		case o == store.OutcomeCommitted:
			applied = append(applied, tx)
			steps = append(steps, commitTx(tx))
		case o == store.OutcomeAborted || o == store.OutcomeUnknown && presumeAbort:
			aborted = append(aborted, tx)
			steps = append(steps, abortTx(tx))
		}
	}
	return fmt.Sprint("ok ", applied, aborted), steps
}

func (sp *spec) read(key string) string {
	v, ok := sp.versions[key]
	if !ok {
		return "no-state"
	}
	_, pinned := sp.pinner(key)
	return fmt.Sprintf("ok %q/%d/%s/%v", v.data, v.seq, v.tx, pinned)
}

// diff says how st differs from the spec, or returns "" if it does not.
func (sp *spec) diff(st *storage.State) string {
	pins := 0
	for tx, in := range sp.intents {
		got := st.Intentions[tx]
		if len(got) != len(in) {
			return fmt.Sprintf("%s has intentions %v, want %v", tx, got, in)
		}
		for key, w := range in {
			if g, ok := got[key]; !ok || string(g.Data) != w.data || g.Seq != w.seq {
				return fmt.Sprintf("%s's intention on %s is %+v, want %+v", tx, key, g, w)
			}
			if st.Pins[key] != tx {
				return fmt.Sprintf("%s is pinned by %q, want %s", key, st.Pins[key], tx)
			}
			pins++
		}
	}
	switch {
	case len(st.Intentions) != len(sp.intents):
		return fmt.Sprintf("pending %v, want %v", slices.Sorted(maps.Keys(st.Intentions)), sp.pending())
	case len(st.Pins) != pins:
		return fmt.Sprintf("pins %v, want %d", st.Pins, pins)
	case len(st.Versions) != len(sp.versions):
		return fmt.Sprintf("%d versions, want %d", len(st.Versions), len(sp.versions))
	case !maps.Equal(st.Outcomes, sp.outcomes):
		return fmt.Sprintf("outcomes %v, want %v", st.Outcomes, sp.outcomes)
	}
	for key, v := range sp.versions {
		if g, ok := st.Versions[key]; !ok || string(g.Data) != v.data || g.Seq != v.seq || g.Tx != v.tx {
			return fmt.Sprintf("%s is %q/%d/%s (held %v), want %+v", key, g.Data, g.Seq, g.Tx, ok, v)
		}
	}
	return ""
}

// reply renders a store's answer as the spec renders its own.
func reply(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, store.ErrStoreBehind) && errors.Is(err, store.ErrStaleVersion):
		return "behind"
	case errors.Is(err, store.ErrStaleVersion):
		return "stale"
	case errors.Is(err, store.ErrBusy):
		return "busy"
	case errors.Is(err, store.ErrNoState):
		return "no-state"
	}
	return err.Error()
}

// The model's Disk store compacts whenever its WAL reaches compactAt bytes,
// every few operations.
const compactAt = 512

// recorder is the Disk store's backend: the Disk itself, but each Sync that
// is due to compact first keeps the files it is about to replace. The
// compaction images, and the WAL images of an operation whose records a
// compaction folded away, are built from them.
type recorder struct {
	storage.Backend
	t           testing.TB
	disk        *storage.Disk
	dir         string
	compactions []compaction
}

// compaction is one compaction's files: the snapshot and the WAL before it,
// and the snapshot it wrote.
type compaction struct {
	snap0, wal0, snap1 []byte
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return b
}

func (r *recorder) Sync() error {
	if r.disk.WALSize() < compactAt {
		return r.Backend.Sync()
	}
	c := compaction{snap0: readFile(r.t, storage.SnapshotPath(r.dir)), wal0: readFile(r.t, storage.WALPath(r.dir))}
	err := r.Backend.Sync()
	if r.disk.WALSize() < int64(len(c.wal0)) {
		c.snap1 = readFile(r.t, storage.SnapshotPath(r.dir))
		r.compactions = append(r.compactions, c)
	}
	return err
}

// junk is what a crash may leave after a WAL's last whole record.
var junk = [][]byte{
	{0x01},                         // a short length prefix
	{0x64, 0x00, 0x00, 0x00, 0xAA}, // a length promising 100 bytes, and one of them
	bytes.Repeat([]byte{0xFF}, 64), // garbage
	append([]byte{9, 0, 0, 0}, make([]byte, 13)...), // a whole frame with a bad CRC
}

// images checks the crash images of the Disk store's files against the
// spec: every byte prefix of the WAL an operation appended, bare and with
// each junk tail, and four directories for each compaction step.
type images struct {
	t        testing.TB
	snap     []byte // the snapshot as the last operation left it
	wal      []byte // the WAL as the last operation left it
	count    int    // images checked
	midOps   int    // images cut between two records of one operation
	compacts int    // compactions checked
}

// op checks the images of one operation that ran from the files img holds.
// want[k] is the spec after the operation's first k records; the WAL at
// the end of the operation is final, and each compaction it ran is in cs.
func (img *images) op(want []*spec, cs []compaction, final []byte) {
	t := img.t
	t.Helper()
	if !bytes.HasPrefix(firstWAL(cs, final), img.wal) {
		t.Fatal("the operation rewrote WAL bytes written before it")
	}
	snap, from, whole := img.snap, len(img.wal), 0
	for _, c := range cs {
		if !bytes.Equal(c.snap0, snap) {
			t.Fatal("the snapshot changed outside a compaction")
		}
		whole = img.segment(want, whole, snap, c.wal0, from)
		img.compaction(c, want[whole])
		snap, from = c.snap1, 0
	}
	if whole = img.segment(want, whole, snap, final, from); whole != len(want)-1 {
		t.Fatalf("the operation appended %d records, its spec has %d", whole, len(want)-1)
	}
	img.snap, img.wal = snap, final
}

func firstWAL(cs []compaction, final []byte) []byte {
	if len(cs) > 0 {
		return cs[0].wal0
	}
	return final
}

// segment checks every prefix of wal longer than from, replayed over snap,
// bare and with each junk tail. The whole records in wal[from:] are the
// operation's, after the whole it had appended before; segment returns the
// count with them.
func (img *images) segment(want []*spec, whole int, snap, wal []byte, from int) int {
	t := img.t
	t.Helper()
	ends := []int{from} // record boundaries
	for at := from; at < len(wal); {
		if len(wal)-at < 8 {
			t.Fatalf("WAL ends inside a frame at byte %d of %d", at, len(wal))
		}
		at += 8 + int(binary.LittleEndian.Uint32(wal[at:]))
		ends = append(ends, at)
	}
	if ends[len(ends)-1] != len(wal) {
		t.Fatalf("the last frame overruns the WAL's %d bytes", len(wal))
	}
	buf := make([]byte, 0, len(wal)+64)
	k := 0 // ends[k] is the last boundary at or before cut
	for cut := from + 1; cut <= len(wal); cut++ {
		if k+1 < len(ends) && ends[k+1] <= cut {
			k++
		}
		if 0 < whole+k && whole+k < len(want)-1 {
			img.midOps++
		}
		for j := -1; j < len(junk); j++ {
			buf = append(buf[:0], wal[:cut]...)
			if j >= 0 {
				buf = append(buf, junk[j]...)
			}
			// A junk tail that happens to repeat the bytes it replaces
			// completes their record.
			kk := k
			for kk+1 < len(ends) && ends[kk+1] <= len(buf) && bytes.Equal(buf[cut:ends[kk+1]], wal[cut:ends[kk+1]]) {
				kk++
			}
			st, clean, err := storage.Replay(snap, buf)
			if err != nil {
				t.Fatalf("WAL cut at byte %d of %d, junk %d: %v", cut, len(wal), j, err)
			}
			if clean != int64(ends[kk]) {
				t.Fatalf("WAL cut at byte %d of %d, junk %d: replay kept %d bytes, want the %d of whole records", cut, len(wal), j, clean, ends[kk])
			}
			if d := want[whole+kk].diff(st); d != "" {
				t.Fatalf("WAL cut at byte %d of %d (%d of the op's %d records whole), junk %d: %s", cut, len(wal), whole+kk, len(want)-1, j, d)
			}
			img.count++
		}
	}
	return whole + len(ends) - 1
}

// compaction checks the directory as each step of compaction c leaves it
// against sp, the spec at the compaction: the new snapshot partly written
// to its temporary file, whole there but not renamed over the old one,
// renamed with the WAL not yet truncated, and the WAL truncated.
func (img *images) compaction(c compaction, sp *spec) {
	t := img.t
	t.Helper()
	for i, dir := range []string{
		img.dir(c.snap0, c.wal0, c.snap1[:len(c.snap1)/2]),
		img.blockedRename(c),
		img.dir(c.snap1, c.wal0, nil),
		img.dir(c.snap1, nil, nil),
	} {
		d, err := storage.OpenDisk(dir, storage.DiskOptions{Sync: storage.SyncNone, CompactAt: -1})
		if err != nil {
			t.Fatalf("compaction step %d: reopen: %v", i+1, err)
		}
		st, _ := d.Load()
		if diff := sp.diff(st); diff != "" {
			t.Fatalf("compaction step %d: %s", i+1, diff)
		}
		d.Close()
		img.count++
	}
	img.compacts++
}

// dir returns a new directory holding a WAL and, when not nil, a snapshot
// and a temporary snapshot.
func (img *images) dir(snap, wal, tmp []byte) string {
	dir := img.t.TempDir()
	for path, b := range map[string][]byte{storage.SnapshotPath(dir): snap, storage.WALPath(dir): wal, storage.SnapshotPath(dir) + ".tmp": tmp} {
		if b != nil || path == storage.WALPath(dir) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				img.t.Fatal(err)
			}
		}
	}
	return dir
}

// blockedRename returns the directory compaction c leaves when its rename
// fails: the engine compacts the files before c with a directory in the
// snapshot's place, and the old snapshot is put back after.
func (img *images) blockedRename(c compaction) string {
	t := img.t
	t.Helper()
	dir := img.dir(c.snap0, c.wal0, nil)
	d, err := storage.OpenDisk(dir, storage.DiskOptions{Sync: storage.SyncNone, CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	block := storage.SnapshotPath(dir)
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(block, "block"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err == nil {
		t.Fatal("compaction renamed its snapshot over a directory")
	}
	d.Close()
	if tmp := readFile(t, block+".tmp"); !bytes.Equal(tmp, c.snap1) {
		t.Fatalf("the blocked compaction left a %d-byte temporary snapshot, want the %d bytes it writes", len(tmp), len(c.snap1))
	}
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	if c.snap0 != nil {
		if err := os.WriteFile(block, c.snap0, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// chooser draws the model's choices: a seeded rng's, or a fuzzer's bytes.
type chooser interface{ Intn(n int) int }

type byteChooser []byte

func (c *byteChooser) Intn(n int) int {
	if len(*c) == 0 {
		return 0
	}
	v := int((*c)[0]) % n
	*c = (*c)[1:]
	return v
}

// lookup is an outcome log made of a function.
type lookup func(string) store.Outcome

func (l lookup) Lookup(tx string) store.Outcome { return l(tx) }

// runModel drives a store over Mem and one over a compacting Disk with
// steps operations drawn from c: puts, prepares of one and of several
// writes, commits, one-phase commits of a lone write and of several,
// aborts, removes, outcome records written and pruned through the node's
// coordinator log on the same backend, ResolveDecided, restarts (a
// shutdown, a reopen and a presumed-abort Recover) and reads. Every reply,
// and each store's contents after every operation, must be the spec's, and
// so must every crash image of the Disk store's files; a prepare or
// one-phase commit must append all its records to the WAL with one write.
// It returns the replies by operation and the images checked.
func runModel(t testing.TB, c chooser, steps int) (map[string]int, *images) {
	dir := t.TempDir()
	rec := &recorder{t: t, dir: dir}
	disk, err := store.OpenWith("st", func() (storage.Backend, error) {
		d, err := storage.OpenDisk(dir, storage.DiskOptions{Sync: storage.SyncNone, CompactAt: compactAt})
		if err != nil {
			return nil, err
		}
		rec.Backend, rec.disk = d, d
		return rec, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Shutdown()
	stores := [2]*store.Store{store.New("st"), disk}
	var logs [2]*action.BackendLog
	for i, s := range stores {
		logs[i] = action.NewBackendLogFunc(s.Backend)
	}
	sp := newSpec()
	img := &images{t: t}
	ids := make([]uid.UID, 4)
	for i := range ids {
		ids[i] = uid.UID{Origin: "obj", Epoch: 1, Seq: uint64(i + 1)}
	}
	txs := 0
	// pickTx returns a pending transaction, or now and then a new one.
	pickTx := func() string {
		open := sp.pending()
		if len(open) == 0 || c.Intn(3) == 0 {
			txs++
			return fmt.Sprint("tx-", txs)
		}
		return open[c.Intn(len(open))]
	}
	// writes draws n writes to distinct objects; most extend the chain,
	// some are stale and some skip ahead.
	writes := func(op, n int) []store.Write {
		perm := []int{0, 1, 2, 3}
		for i := range perm {
			j := i + c.Intn(len(perm)-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		out := make([]store.Write, n)
		for i, j := range perm[:n] {
			seq := sp.versions[ids[j].String()].seq + uint64(1+c.Intn(8)/6-c.Intn(8)/7)
			out[i] = store.Write{UID: ids[j], Data: []byte(fmt.Sprintf("%d.%d", op, i)), Seq: seq}
		}
		return out
	}
	tally := map[string]int{}
	for n := 0; n < steps; n++ {
		id := ids[c.Intn(len(ids))]
		key := id.String()
		var (
			name string
			want string
			recs []step
			run  func(s *store.Store, log *action.BackendLog) string
		)
		switch r := c.Intn(24); {
		case r < 2:
			name = "put"
			seq, data := sp.versions[key].seq+1, fmt.Sprint("put", n)
			want, recs = "ok", []step{setVersion(key, specVersion{data, seq, ""})}
			run = func(s *store.Store, _ *action.BackendLog) string { return reply(s.Put(id, []byte(data), seq)) }
		case r < 6:
			tx, ws := pickTx(), writes(n, 1+c.Intn(3))
			name = fmt.Sprint("prepare ", min(len(ws), 2))
			want, recs = sp.prepare(tx, ws)
			run = func(s *store.Store, _ *action.BackendLog) string { return reply(s.Prepare(tx, ws)) }
		case r < 8:
			tx := pickTx()
			name, want, recs = "commit", "ok", sp.settle(tx, true)
			run = func(s *store.Store, _ *action.BackendLog) string { return reply(s.Commit(tx)) }
		case r < 11:
			tx, ws := pickTx(), writes(n, 1+c.Intn(2)*c.Intn(3))
			name = fmt.Sprint("commit-one-phase ", min(len(ws), 2))
			want, recs = sp.commitOnePhase(tx, ws)
			run = func(s *store.Store, _ *action.BackendLog) string { return reply(s.CommitOnePhase(tx, ws)) }
		case r < 13:
			tx := pickTx()
			name, want, recs = "abort", "ok", sp.settle(tx, false)
			run = func(s *store.Store, _ *action.BackendLog) string { return reply(s.Abort(tx)) }
		case r < 14:
			name, want, recs = "remove", "ok", []step{dropVersion(key)}
			run = func(s *store.Store, _ *action.BackendLog) string { return reply(s.Remove(id)) }
		case r < 16:
			tx, o := pickTx(), store.Outcome(1+c.Intn(2))
			name, want, recs = "record outcome", "ok", []step{setOutcome(tx, uint8(o))}
			run = func(_ *store.Store, log *action.BackendLog) string { return reply(log.Record(tx, o)) }
		case r < 17:
			tx := fmt.Sprint("tx-", 1+c.Intn(txs+1))
			name, want, recs = "forget outcome", "ok", []step{dropOutcome(tx)}
			run = func(_ *store.Store, log *action.BackendLog) string { return reply(log.Forget(tx)) }
		case r < 19:
			// The node's own outcome log answers, but one transaction's
			// coordinator may be unreachable.
			unreachable := pickTx()
			answer := func(log store.OutcomeLog) lookup {
				return func(tx string) store.Outcome {
					if tx == unreachable {
						return store.OutcomeUnavailable
					}
					return log.Lookup(tx)
				}
			}
			specLog := answer(lookup(func(tx string) store.Outcome { return store.Outcome(sp.outcomes[tx]) }))
			if r == 17 {
				name = "resolve-decided"
				want, recs = sp.resolve(specLog, false)
				run = func(s *store.Store, log *action.BackendLog) string {
					applied, aborted := s.ResolveDecided(answer(log))
					return fmt.Sprint("ok ", applied, aborted)
				}
			} else {
				name = "restart"
				want, recs = sp.resolve(specLog, true)
				run = func(s *store.Store, log *action.BackendLog) string {
					if err := s.Shutdown(); err != nil {
						return err.Error()
					}
					if err := s.Reopen(); err != nil {
						return err.Error()
					}
					applied, aborted := s.Recover(answer(log))
					return fmt.Sprint("ok ", applied, aborted)
				}
			}
		default:
			name, want = "read", sp.read(key)
			run = func(s *store.Store, _ *action.BackendLog) string {
				v, err := s.Read(id)
				if err != nil {
					return reply(err)
				}
				return fmt.Sprintf("ok %q/%d/%s/%v", v.Data, v.Seq, v.TxID, v.Pinned)
			}
		}
		// specs[k] is the spec after the operation's first k records.
		specs := []*spec{sp}
		for _, s := range recs {
			next := specs[len(specs)-1].clone()
			s(next)
			specs = append(specs, next)
		}
		sp = specs[len(specs)-1]
		walWrites := rec.disk.WALWrites()
		for i, s := range stores {
			if got := run(s, logs[i]); got != want {
				t.Fatalf("op %d, %s on %s: replied %q, the spec %q", n, name, []string{"mem", "disk"}[i], got, want)
			}
			st, err := s.Backend().Load()
			if err != nil {
				t.Fatal(err)
			}
			if d := sp.diff(st); d != "" {
				t.Fatalf("op %d, %s on %s: %s", n, name, []string{"mem", "disk"}[i], d)
			}
		}
		// A prepare or one-phase commit, of one write or several, appends
		// all its records with one write(2).
		if op := strings.Fields(name)[0]; (op == "prepare" || op == "commit-one-phase") && len(recs) > 0 {
			if w := rec.disk.WALWrites() - walWrites; w != 1 {
				t.Fatalf("op %d, %s: %d records in %d WAL writes, want one", n, name, len(recs), w)
			}
		}
		img.op(specs, rec.compactions, readFile(t, storage.WALPath(dir)))
		rec.compactions = nil
		tally[name+" "+strings.Fields(want)[0]]++
	}
	for i, s := range stores {
		if got, want := fmt.Sprint(s.PendingTxs()), fmt.Sprint(sp.pending()); got != want {
			t.Fatalf("%s: pending %s, the spec %s", []string{"mem", "disk"}[i], got, want)
		}
		var objects []string
		for _, id := range s.Objects() {
			objects = append(objects, id.String())
		}
		if got, want := fmt.Sprint(objects), fmt.Sprint(slices.Sorted(maps.Keys(sp.versions))); got != want {
			t.Fatalf("%s: objects %s, the spec %s", []string{"mem", "disk"}[i], got, want)
		}
	}
	return tally, img
}

// TestStoreBackendsAgree is the store's reference model (runModel) on four
// seeded sequences of 400 operations. Each sequence must reach what it is
// meant to check: admitted and refused prepares and one-phase commits of
// one write and of several, every kind of refusal, operations cut between
// their records, and compactions.
func TestStoreBackendsAgree(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			tally, img := runModel(t, rand.New(rand.NewSource(seed)), 400)
			for _, c := range []string{"prepare 1", "prepare 2", "commit-one-phase 1", "commit-one-phase 2"} {
				if tally[c+" ok"] == 0 || tally[c+" busy"]+tally[c+" stale"]+tally[c+" behind"] == 0 {
					t.Errorf("%s: no success or no refusal in the sequence (%v)", c, tally)
				}
			}
			for _, r := range []string{"busy", "stale", "behind"} {
				if tally["prepare 2 "+r]+tally["prepare 1 "+r]+tally["commit-one-phase 1 "+r]+tally["commit-one-phase 2 "+r] == 0 {
					t.Errorf("no %s refusal in the sequence (%v)", r, tally)
				}
			}
			if img.midOps == 0 || img.compacts == 0 {
				t.Errorf("%d images cut mid-operation, %d compactions: the sequence reaches neither", img.midOps, img.compacts)
			}
			t.Logf("%d crash images, %d cut mid-operation, %d compactions; replies %v", img.count, img.midOps, img.compacts, tally)
		})
	}
}

// FuzzStoreAgainstModel runs the model on operation sequences drawn from
// the fuzzer's bytes, one byte per choice. The corpus is checked in under
// testdata/fuzz/FuzzStoreAgainstModel, and a plain test run replays each
// entry in full, up to 200 operations. Under -fuzz an input drives at most
// fuzzSteps of them: every operation checks each byte cut of what it wrote,
// and the fuzzer reruns each new input many times to minimize it, so a long
// input would hold the fuzzer for minutes.
func FuzzStoreAgainstModel(f *testing.F) {
	steps := 200
	if fuzz := flag.Lookup("test.fuzz"); fuzz != nil && fuzz.Value.String() != "" {
		steps = fuzzSteps
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := byteChooser(raw)
		runModel(t, &c, min(len(raw)/3, steps))
	})
}

// fuzzSteps caps the operations of one input while fuzzing.
const fuzzSteps = 32
