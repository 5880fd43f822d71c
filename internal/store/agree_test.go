package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/uid"
)

// TestStoreBackendsAgree runs one seeded sequence of store operations —
// puts, prepares of one and of several writes, commits, one-phase commits
// of a lone write and of several, aborts, removes, and shutdowns with
// reopens at random points — on a store over Mem and on one over Disk, and
// requires the same reply from both at every step and the same contents at
// the end. The Disk store compacts often, so replay runs from snapshots as
// well as from the WAL. This is the seed of the store's reference model.
func TestStoreBackendsAgree(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			disk, err := OpenWith("st", storage.DiskFactory(t.TempDir(), storage.DiskOptions{Sync: storage.SyncNone, CompactAt: 2048}))
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Shutdown()
			stores := [2]*Store{New("st"), disk}
			rng := rand.New(rand.NewSource(seed))
			ids := make([]uid.UID, 4)
			for i := range ids {
				ids[i] = uid.UID{Origin: "obj", Epoch: 1, Seq: uint64(i + 1)}
			}
			var open []string // transactions with prepared intentions
			txs := 0
			// pickTx returns an open transaction, or now and then a new one.
			pickTx := func() string {
				if len(open) == 0 || rng.Intn(3) == 0 {
					txs++
					return fmt.Sprint("tx-", txs)
				}
				return open[rng.Intn(len(open))]
			}
			// writes draws n writes to distinct objects; most extend the
			// chain, some are stale and some skip ahead.
			writes := func(step, n int) []Write {
				out := make([]Write, n)
				for i, j := range rng.Perm(len(ids))[:n] {
					seq, _ := stores[0].SeqOf(ids[j])
					seq += uint64(1 + rng.Intn(8)/6 - rng.Intn(8)/7)
					out[i] = Write{UID: ids[j], Data: []byte(fmt.Sprintf("%d.%d", step, i)), Seq: seq}
				}
				return out
			}
			// tally counts replies by operation, to show the sequence
			// reaches the cases it is meant to.
			tally := map[string]int{}
			// same runs op on both stores and requires equal replies.
			same := func(step int, what string, op func(s *Store) error) {
				t.Helper()
				m, d := op(stores[0]), op(stores[1])
				if fmt.Sprint(m) != fmt.Sprint(d) {
					t.Fatalf("step %d, %s: mem replied %v, disk %v", step, what, m, d)
				}
				tally[fmt.Sprint(what, " ", m == nil)]++
			}
			for step := 0; step < 400; step++ {
				open = stores[0].PendingTxs()
				id := ids[rng.Intn(len(ids))]
				switch r := rng.Intn(20); {
				case r < 2:
					seq, _ := stores[0].SeqOf(id)
					data := []byte(fmt.Sprint("put", step))
					same(step, "put", func(s *Store) error { return s.Put(id, data, seq+1) })
				case r < 6:
					tx, ws := pickTx(), writes(step, 1+rng.Intn(3))
					same(step, fmt.Sprint("prepare ", min(len(ws), 2)), func(s *Store) error { return s.Prepare(tx, ws) })
				case r < 8:
					tx := pickTx()
					same(step, "commit", func(s *Store) error { return s.Commit(tx) })
				case r < 11:
					tx, ws := pickTx(), writes(step, 1+rng.Intn(2)*rng.Intn(3))
					same(step, fmt.Sprint("commit-one-phase ", min(len(ws), 2)), func(s *Store) error { return s.CommitOnePhase(tx, ws) })
				case r < 13:
					tx := pickTx()
					same(step, "abort", func(s *Store) error { return s.Abort(tx) })
				case r < 14:
					same(step, "remove", func(s *Store) error { return s.Remove(id) })
				case r < 15:
					for _, s := range stores {
						if err := s.Shutdown(); err != nil {
							t.Fatal(err)
						}
						if err := s.Reopen(); err != nil {
							t.Fatal(err)
						}
					}
				default:
					same(step, "read", func(s *Store) error {
						v, err := s.Read(id)
						seq, ok := s.SeqOf(id)
						return fmt.Errorf("%q/%d/%s/%v %v %d/%v", v.Data, v.Seq, v.TxID, v.Pinned, err, seq, ok)
					})
				}
			}
			for _, c := range []string{"prepare 1", "prepare 2", "commit-one-phase 1", "commit-one-phase 2"} {
				if tally[c+" true"] == 0 || tally[c+" false"] == 0 {
					t.Fatalf("%s: no success or no refusal in the sequence (%v)", c, tally)
				}
			}
			for _, id := range ids {
				same(-1, "final read", func(s *Store) error {
					v, err := s.Read(id)
					return fmt.Errorf("%q/%d/%s/%v %v", v.Data, v.Seq, v.TxID, v.Pinned, err)
				})
			}
			same(-1, "pending", func(s *Store) error { return fmt.Errorf("%v", s.PendingTxs()) })
			same(-1, "objects", func(s *Store) error { return fmt.Errorf("%v", s.Objects()) })
		})
	}
}
