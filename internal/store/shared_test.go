package store_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/action"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/uid"
)

// TestBackendLogBesideStore runs a node's coordinator outcome log on its
// store's backend — Record, Lookup and Forget — while the store prepares,
// commits and reads, on Mem and on a compacting Disk. The two write one
// image, each its own part of it (the store its versions and intentions,
// the log its outcomes); under -race this is the guard for that rule.
func TestBackendLogBesideStore(t *testing.T) {
	for name, f := range map[string]storage.Factory{
		"mem":  storage.MemFactory(),
		"disk": storage.DiskFactory(t.TempDir(), storage.DiskOptions{Sync: storage.SyncNone, CompactAt: 4096}),
	} {
		t.Run(name, func(t *testing.T) {
			s, err := store.OpenWith("st", f)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown()
			log := action.NewBackendLogFunc(s.Backend)
			const rounds = 200
			ids := []uid.UID{{Origin: "obj", Epoch: 1, Seq: 1}, {Origin: "obj", Epoch: 1, Seq: 2}}
			for _, id := range ids {
				if err := s.Put(id, []byte("0"), 1); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			run := func(f func(i int) error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if err := f(i); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			run(func(i int) error { // the log
				tx := fmt.Sprint("log-", i)
				if err := log.Record(tx, store.OutcomeCommitted); err != nil {
					return err
				}
				if o := log.Lookup(tx); o != store.OutcomeCommitted {
					return fmt.Errorf("lookup %s = %v after Record", tx, o)
				}
				if err := log.Forget(tx); err != nil {
					return err
				}
				if o := log.Lookup(tx); o != store.OutcomeUnknown {
					return fmt.Errorf("lookup %s = %v after Forget", tx, o)
				}
				return nil
			})
			for w, id := range ids { // one writer per object: two-phase, then one-phase
				run(func(i int) error {
					tx, seq := fmt.Sprintf("tx-%d-%d", w, i), uint64(2*i+2)
					if err := s.Prepare(tx, []store.Write{{UID: id, Data: []byte(tx), Seq: seq}}); err != nil {
						return err
					}
					if err := s.Commit(tx); err != nil {
						return err
					}
					return s.CommitOnePhase(tx+"-1p", []store.Write{{UID: id, Data: []byte(tx), Seq: seq + 1}})
				})
			}
			run(func(int) error { // a reader
				for _, id := range ids {
					if _, err := s.Read(id); err != nil {
						return err
					}
				}
				_, _ = s.PendingTxs(), s.Objects()
				return nil
			})
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for _, id := range ids {
				if v, err := s.Read(id); err != nil || v.Seq != 2*rounds+1 || v.Pinned {
					t.Fatalf("%v = %+v, %v; want seq %d, nothing pending", id, v, err, 2*rounds+1)
				}
			}
		})
	}
}
