// Command cicero-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	cicero-bench -experiment fig11a [-flows 5000] [-seed 2020] [-quick] [-real-crypto]
//	cicero-bench -experiment all
//	cicero-bench -crypto-bench [-crypto-bench-out BENCH_crypto.json] [-quick]
//	cicero-bench -list
//
// The gating experiments (chaos, crosscheck, distrib, synthesis, tuf) print
// their tables and then exit 1 if a gate failed; crosscheck is the
// cross-backend equivalence gate (simnet, inproc and tcp at every batch
// size must converge to the same flow tables and audit ledgers).
//
// -crypto-bench measures the real wall-clock cost of the crypto fast path
// (pairings, verification, threshold combining) and writes a
// machine-readable JSON report; it is separate from -experiment because
// experiment output is deterministic virtual time while these numbers
// depend on the host machine. With -quick the windows are too short to
// record: the table is printed and BENCH_crypto.json, the committed
// full-window reading, is left alone unless -crypto-bench-out names a file.
//
// Each experiment prints the same rows/series its paper counterpart
// reports; EXPERIMENTS.md records measured-versus-paper for all of them.
package main

import (
	"flag"
	"fmt"
	"os"

	"cicero/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		experiment = flag.String("experiment", "", "experiment id (see -list), or 'all'")
		flows      = flag.Int("flows", 0, "flows per run (default 5000, or 400 with -quick)")
		seed       = flag.Int64("seed", 2020, "deterministic simulation seed")
		quick      = flag.Bool("quick", false, "shrink topologies and flow counts for a fast pass")
		realCrypto = flag.Bool("real-crypto", false, "execute real BLS/Ed25519 operations (slow)")
		list       = flag.Bool("list", false, "list experiment ids and exit")

		cryptoBench    = flag.Bool("crypto-bench", false, "run crypto microbenchmarks and write a JSON report")
		cryptoBenchOut = flag.String("crypto-bench-out", "", "output path for -crypto-bench (default BENCH_crypto.json; with -quick, none: print only)")
	)
	flag.Parse()

	if *list {
		for _, name := range experiments.Names() {
			fmt.Println(name)
		}
		return 0
	}
	if *cryptoBench {
		report, err := experiments.RunCryptoBench(experiments.Options{Quick: *quick})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cicero-bench: %v\n", err)
			return 1
		}
		report.Render(os.Stdout)
		if *cryptoBenchOut == "" {
			if *quick {
				return 0
			}
			*cryptoBenchOut = "BENCH_crypto.json"
		}
		out, err := os.Create(*cryptoBenchOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cicero-bench: %v\n", err)
			return 1
		}
		defer out.Close()
		if err := report.WriteJSON(out); err != nil {
			fmt.Fprintf(os.Stderr, "cicero-bench: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *cryptoBenchOut)
		return 0
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "cicero-bench: -experiment is required (use -list to enumerate)")
		flag.Usage()
		return 2
	}
	opt := experiments.Options{
		Flows:      *flows,
		Seed:       *seed,
		Quick:      *quick,
		CryptoReal: *realCrypto,
	}
	names := []string{*experiment}
	if *experiment == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		if err := experiments.Run(name, opt, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "cicero-bench: %v\n", err)
			return 1
		}
		fmt.Println()
	}
	return 0
}
