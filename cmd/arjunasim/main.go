// Command arjunasim is an interactive console over a simulated deployment:
// crash and recover nodes, run actions against a replicated counter
// through the naming and binding service, and inspect the Sv/St views and
// use lists as the protocols maintain them.
//
// Usage:
//
//	arjunasim [-shards N] [-servers N] [-stores N] [-scheme standard|independent|nested] [-policy single|active|cohort] [-data-dir DIR]
//
// With -shards N > 1 the deployment splits into N groups (db1..dbN, each
// with its own servers and stores), objects placed by consistent hashing;
// the per-shard placement table is printed at startup and with
// the shards command, and -servers/-stores become per-shard counts.
//
// With -data-dir, every node's stable storage lives in a WAL+snapshot
// directory under DIR: crash/recover cycles replay from disk, and
// re-running arjunasim on the same directory resumes the stored counter
// state.
//
// Commands (stdin, one per line):
//
//	add N        run an action adding N to the counter
//	get          run a read-only action
//	crash NODE   fail-silence a node (sv1, st2, ...)
//	recover NODE recover a node (runs the §4.1.2/§4.2 recovery protocols)
//	sv | st      print the current Sv / St view
//	shards       print the placement table and the object's shard
//	sweep        run the use-list janitor
//	status       print node liveness and incarnation numbers
//	quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/pkg/arjuna"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "arjunasim:", err)
		os.Exit(1)
	}
}

func run() error {
	shards := flag.Int("shards", 1, "number of shards (1 = one group, resolved from a one-row placement table)")
	servers := flag.Int("servers", 2, "number of object-server nodes (per shard when sharded)")
	stores := flag.Int("stores", 2, "number of object-store nodes (per shard when sharded)")
	schemeName := flag.String("scheme", "independent", "db access scheme: standard | independent | nested")
	policyName := flag.String("policy", "single", "replication policy: single | active | cohort")
	dataDir := flag.String("data-dir", "", "root directory for disk-backed stable storage (default: in-memory)")
	flag.Parse()

	scheme, err := arjuna.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	policy, err := arjuna.ParsePolicy(*policyName)
	if err != nil {
		return err
	}

	opts := []arjuna.Option{
		arjuna.WithShards(*shards),
		arjuna.WithServers(*servers),
		arjuna.WithStores(*stores),
	}
	if *dataDir != "" {
		opts = append(opts, arjuna.WithDataDir(*dataDir))
	}
	sys, err := arjuna.Open(opts...)
	if err != nil {
		return err
	}
	defer sys.Close()
	ctx := context.Background()
	cl, err := sys.Client("c1", arjuna.ClientScheme(scheme), arjuna.ClientPolicy(policy))
	if err != nil {
		return err
	}
	obj := sys.Objects()[0]

	printShards := func() {
		for _, sh := range sys.Shards() {
			fmt.Printf("shard %d: db=%s servers=%v stores=%v\n", sh.ID, sh.DB, sh.Servers, sh.Stores)
		}
		fmt.Printf("object %v is on shard %d\n", obj, sys.ShardOf(obj))
	}
	if sys.ShardCount() > 1 {
		fmt.Printf("cluster: %d shards × (db + %d servers + %d stores); object %v (scheme=%v, policy=%v)\n",
			sys.ShardCount(), *servers, *stores, obj, scheme, policy)
		printShards()
	} else {
		fmt.Printf("cluster: db + %d servers + %d stores; object %v (scheme=%v, policy=%v)\n",
			*servers, *stores, obj, scheme, policy)
	}
	fmt.Println("type 'help' for commands")

	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !scanner.Scan() {
			return scanner.Err()
		}
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "help":
			fmt.Println("add N | get | crash NODE | recover NODE | sv | st | shards | sweep | status | quit")
		case "quit", "exit":
			return nil
		case "add":
			if len(fields) != 2 {
				fmt.Println("usage: add N")
				continue
			}
			if _, err := strconv.Atoi(fields[1]); err != nil {
				fmt.Printf("bad delta %q\n", fields[1])
				continue
			}
			rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
				_, err := tx.Object(obj).Invoke(ctx, "add", []byte(fields[1]))
				return err
			})
			fmt.Printf("committed=%v probes=%d excluded=%d err=%v\n",
				rep.Committed, len(rep.BrokenServers), len(rep.ExcludedStores), err)
		case "get":
			var val []byte
			_, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
				var err error
				val, err = tx.Object(obj).Read(ctx, "get", nil)
				return err
			})
			fmt.Printf("committed=%v value=%s err=%v\n", err == nil, val, err)
		case "crash":
			if len(fields) != 2 {
				fmt.Println("usage: crash NODE")
				continue
			}
			if err := sys.Crash(fields[1]); err != nil {
				fmt.Println(err)
				continue
			}
			fmt.Println(fields[1], "crashed")
		case "recover":
			if len(fields) != 2 {
				fmt.Println("usage: recover NODE")
				continue
			}
			if err := sys.Recover(ctx, fields[1]); err != nil {
				fmt.Printf("recover %s failed: %v\n", fields[1], err)
				continue
			}
			fmt.Println(fields[1], "recovered")
		case "sv":
			view, err := sys.ServerView(ctx, obj)
			fmt.Printf("Sv = %v (err=%v)\n", view, err)
		case "st":
			view, err := sys.StoreView(ctx, obj)
			fmt.Printf("St = %v (err=%v)\n", view, err)
		case "shards":
			printShards()
		case "sweep":
			rep := sys.Sweep(ctx)
			fmt.Printf("dead=%v abortedActions=%d clearedCounters=%d\n", rep.DeadClients, rep.AbortedActions, rep.ClearedCounters)
		case "status":
			for _, ns := range sys.Status() {
				fmt.Printf("%s kind=%s up=%v epoch=%d\n", ns.Name, ns.Kind, ns.Up, ns.Epoch)
			}
		default:
			fmt.Println("unknown command; try 'help'")
		}
	}
}
