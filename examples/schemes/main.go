// Schemes: a side-by-side demonstration of the paper's three database
// access schemes (Figures 6-8). A server node crashes mid-workload; the
// output shows who pays the failure-discovery cost afterwards and how the
// Sv view evolves in each scheme.
//
// Run with: go run ./examples/schemes [-scheme all|standard|independent|nested]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/pkg/arjuna"
)

func main() {
	log.SetFlags(0)
	schemeName := flag.String("scheme", "all", "scheme to demonstrate: all | standard | independent | nested")
	flag.Parse()

	schemes := []arjuna.Scheme{arjuna.SchemeStandard, arjuna.SchemeIndependent, arjuna.SchemeNestedTopLevel}
	if *schemeName != "all" {
		s, err := arjuna.ParseScheme(*schemeName)
		if err != nil {
			log.Fatal(err)
		}
		schemes = []arjuna.Scheme{s}
	}

	ctx := context.Background()
	for _, scheme := range schemes {
		fmt.Printf("=== scheme: %s ===\n", scheme)
		if err := demo(ctx, scheme); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}

func demo(ctx context.Context, scheme arjuna.Scheme) error {
	sys, err := arjuna.Open(
		arjuna.WithServers(2),
		arjuna.WithStores(2),
		arjuna.WithClients(3),
	)
	if err != nil {
		return err
	}
	defer sys.Close()
	obj := sys.Objects()[0]
	sv, _ := sys.ServerView(ctx, obj)
	fmt.Println("initial Sv:", sv)

	clients := make([]*arjuna.Client, 0, 3)
	for _, c := range sys.ClientNodes() {
		cl, err := sys.Client(string(c), arjuna.ClientScheme(scheme))
		if err != nil {
			return err
		}
		clients = append(clients, cl)
	}
	addOne := func(cl *arjuna.Client) *arjuna.CommitReport {
		rep, _ := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
			return err
		})
		return rep
	}

	// Everyone runs one action; then sv1 crashes; then each client runs
	// two more.
	for _, cl := range clients {
		rep := addOne(cl)
		fmt.Printf("  %s pre-crash action: committed=%v probes=%d\n", cl.Name(), rep.Committed, len(rep.BrokenServers))
	}

	fmt.Println("  -- sv1 crashes --")
	_ = sys.Crash("sv1")

	for round := 1; round <= 2; round++ {
		for _, cl := range clients {
			rep := addOne(cl)
			fmt.Printf("  %s post-crash action %d: committed=%v probes=%d\n", cl.Name(), round, rep.Committed, len(rep.BrokenServers))
		}
	}
	sv, _ = sys.ServerView(ctx, obj)
	fmt.Println("final Sv:", sv)
	switch scheme {
	case arjuna.SchemeStandard:
		fmt.Println("  (standard: Sv stays stale — every post-crash action probed sv1 'the hard way')")
	default:
		fmt.Println("  (enhanced: the first post-crash action removed sv1 — later actions probe nothing)")
	}
	return nil
}
