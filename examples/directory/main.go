// Directory: a replicated, persistent name directory built on the public
// API — a structured (gob-encoded map) object class rather than a plain
// counter, served under active replication so that a server crash
// mid-workload is masked.
//
// Run with: go run ./examples/directory
package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/pkg/arjuna"
)

// dirState is the directory's persistent state.
type dirState struct {
	Entries map[string]string
}

func encodeState(s dirState) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func decodeState(data []byte) dirState {
	var s dirState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		panic(err)
	}
	if s.Entries == nil {
		s.Entries = map[string]string{}
	}
	return s
}

// directoryClass maps names to values; "put k=v", "del k", "get k",
// "list".
func directoryClass() *arjuna.Class {
	return &arjuna.Class{
		Name: "directory",
		Init: func() []byte { return encodeState(dirState{Entries: map[string]string{}}) },
		Methods: map[string]arjuna.Method{
			"put": func(state, args []byte) ([]byte, []byte, error) {
				kv := strings.SplitN(string(args), "=", 2)
				if len(kv) != 2 {
					return nil, nil, fmt.Errorf("put wants k=v, got %q", args)
				}
				s := decodeState(state)
				s.Entries[kv[0]] = kv[1]
				return encodeState(s), []byte("ok"), nil
			},
			"del": func(state, args []byte) ([]byte, []byte, error) {
				s := decodeState(state)
				delete(s.Entries, string(args))
				return encodeState(s), []byte("ok"), nil
			},
			"get": func(state, args []byte) ([]byte, []byte, error) {
				s := decodeState(state)
				v, ok := s.Entries[string(args)]
				if !ok {
					return state, nil, fmt.Errorf("no entry %q", args)
				}
				return state, []byte(v), nil
			},
			"list": func(state, args []byte) ([]byte, []byte, error) {
				s := decodeState(state)
				keys := make([]string, 0, len(s.Entries))
				for k := range s.Entries {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				var b strings.Builder
				for _, k := range keys {
					fmt.Fprintf(&b, "%s=%s\n", k, s.Entries[k])
				}
				return state, []byte(b.String()), nil
			},
		},
		ReadOnly: map[string]bool{"get": true, "list": true},
	}
}

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// Active replication across all three servers: every put is delivered
	// to the replicas in total order.
	sys, err := arjuna.Open(
		arjuna.WithServers(3),
		arjuna.WithStores(2),
		arjuna.WithClass(directoryClass()),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	dirID, err := sys.CreateObject(ctx, "directory", encodeState(dirState{Entries: map[string]string{}}))
	if err != nil {
		log.Fatal(err)
	}
	cl, err := sys.Client("c1", arjuna.ClientScheme(arjuna.SchemeStandard), arjuna.ClientPolicy(arjuna.Active))
	if err != nil {
		log.Fatal(err)
	}

	do := func(method, args string) string {
		var out []byte
		_, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			var err error
			out, err = tx.Object(dirID).Invoke(ctx, method, []byte(args))
			return err
		})
		if err != nil {
			fmt.Printf("  %s %q -> aborted: %v\n", method, args, err)
			return ""
		}
		return string(out)
	}

	fmt.Println("populating the directory under active replication (3 replicas)...")
	do("put", "db=db-node")
	do("put", "alpha=10.0.0.1")
	do("put", "beta=10.0.0.2")
	fmt.Println(do("list", ""))

	fmt.Println("crashing replica sv2 mid-workload (masked by active replication)...")
	_ = sys.Crash("sv2")
	do("put", "gamma=10.0.0.3")
	do("del", "beta")
	fmt.Println(do("list", ""))

	fmt.Println("lookup gamma:", do("get", "gamma"))
	fmt.Println("directory remained available throughout the replica crash")
}
