// Bank: replicated persistent accounts with crash-tolerant transfers.
//
// Each account is a persistent replicated object; a transfer is one atomic
// action binding BOTH accounts, so the two debits/credits commit or abort
// together (multi-object two-phase commit). Mid-run we crash a store node
// and a server node and show that the money-conservation invariant holds
// throughout.
//
// Run with: go run ./examples/bank
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"

	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// accountClass is a persistent bank account holding a decimal balance.
func accountClass() *arjuna.Class {
	parse := func(state []byte) int64 {
		n, _ := strconv.ParseInt(string(state), 10, 64)
		return n
	}
	return &arjuna.Class{
		Name: "account",
		Init: func() []byte { return []byte("0") },
		Methods: map[string]arjuna.Method{
			"deposit": func(state, args []byte) ([]byte, []byte, error) {
				amount, err := strconv.ParseInt(string(args), 10, 64)
				if err != nil || amount < 0 {
					return nil, nil, fmt.Errorf("bad amount %q", args)
				}
				out := []byte(strconv.FormatInt(parse(state)+amount, 10))
				return out, out, nil
			},
			"withdraw": func(state, args []byte) ([]byte, []byte, error) {
				amount, err := strconv.ParseInt(string(args), 10, 64)
				if err != nil || amount < 0 {
					return nil, nil, fmt.Errorf("bad amount %q", args)
				}
				bal := parse(state)
				if bal < amount {
					return nil, nil, errors.New("insufficient funds")
				}
				out := []byte(strconv.FormatInt(bal-amount, 10))
				return out, out, nil
			},
			"balance": func(state, args []byte) ([]byte, []byte, error) {
				return state, state, nil
			},
		},
		ReadOnly: map[string]bool{"balance": true},
	}
}

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	sys, err := arjuna.Open(
		arjuna.WithServers(2),
		arjuna.WithStores(2),
		arjuna.WithClass(accountClass()),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Create two accounts with initial balances.
	alice, err := sys.CreateObject(ctx, "account", []byte("1000"))
	if err != nil {
		log.Fatal(err)
	}
	bob, err := sys.CreateObject(ctx, "account", []byte("500"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("created accounts alice (1000) and bob (500); invariant: total = 1500")

	cl, err := sys.Client("c1", arjuna.ClientScheme(arjuna.SchemeIndependent))
	if err != nil {
		log.Fatal(err)
	}

	// A transfer binds both accounts in ONE atomic action: either both
	// the withdraw and the deposit commit, or neither does.
	transfer := func(from, to uid.UID, amount int64) error {
		amt := []byte(strconv.FormatInt(amount, 10))
		_, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			if _, err := tx.Object(from).Invoke(ctx, "withdraw", amt); err != nil {
				return err
			}
			_, err := tx.Object(to).Invoke(ctx, "deposit", amt)
			return err
		})
		return err
	}

	balanceAt := func(id uid.UID) int64 {
		data, _, err := sys.CommittedState(id)
		if err != nil {
			log.Fatal(err)
		}
		n, _ := strconv.ParseInt(string(data), 10, 64)
		return n
	}
	audit := func(when string) {
		a, bb := balanceAt(alice), balanceAt(bob)
		fmt.Printf("%-34s alice=%-5d bob=%-5d total=%d\n", when, a, bb, a+bb)
		if a+bb != 1500 {
			log.Fatalf("INVARIANT VIOLATED: total = %d", a+bb)
		}
	}

	audit("initially:")
	if err := transfer(alice, bob, 200); err != nil {
		log.Fatal(err)
	}
	audit("after transfer alice->bob 200:")

	// Insufficient funds aborts the whole action — no partial debit.
	if err := transfer(bob, alice, 10_000); err != nil {
		fmt.Println("transfer bob->alice 10000 aborted:", errors.Is(err, arjuna.ErrAborted))
	}
	audit("after aborted transfer:")

	// A store crashes: transfers keep committing on the surviving store,
	// the dead one is excluded from St.
	_ = sys.Crash("st2")
	if err := transfer(bob, alice, 300); err != nil {
		log.Fatal(err)
	}
	audit("after st2 crash + transfer 300:")

	// A server crashes mid-fleet: the enhanced scheme repairs Sv and the
	// next transfer proceeds on the other server.
	_ = sys.Crash("sv1")
	if err := transfer(alice, bob, 50); err != nil {
		log.Fatal(err)
	}
	audit("after sv1 crash + transfer 50:")

	fmt.Println("\nall audits passed — failure atomicity and permanence held throughout")
}
