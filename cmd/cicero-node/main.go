// Command cicero-node boots a single Cicero node — one controller or one
// switch — as its own OS process, from a signed provisioning bundle and a
// static address map. The supervisor (internal/distrib, or any external
// process manager) launches one cicero-node per planned node; together
// they form a true distributed deployment of the livenet TCP backend.
//
// Usage:
//
//	cicero-node -bundle bundle-dom0_ctl_1.json -addrs addrs.json \
//	    -deploy-pub <hex ed25519 key> [-trace trace.jsonl] \
//	    [-boot-epoch N]
//
// The bundle's signature must verify against -deploy-pub before any key
// material in it is used. -boot-epoch counts the node's boots; it changes
// on every restart, so it rides the command line, not the signed bundle.
// At epoch 0 the node boots for the first time. At any later epoch it is a
// replacement for an instance that died with its volatile state, and what
// that means follows from the bundle's role: a controller boots mute and
// runs peer state transfer; a switch numbers its events under the new
// epoch and asks the controllers for its table back.
//
// The process serves until SIGTERM/SIGINT, then shuts down cleanly. A
// SIGKILL is the supervisor's crash injection: no shutdown path runs, and
// recovery is exercised on the next boot.
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"cicero/internal/distrib"
)

func main() {
	var (
		bundle    = flag.String("bundle", "", "signed provisioning bundle (required)")
		addrs     = flag.String("addrs", "", "static address map JSON (required)")
		deployPub = flag.String("deploy-pub", "", "hex ed25519 deployment public key (required)")
		trace     = flag.String("trace", "", "structured trace output (JSONL); empty disables")
		bootEpoch = flag.Uint("boot-epoch", 0, "boot counter; bump on every restart (> 0 boots through recovery)")
	)
	flag.Parse()
	if *bundle == "" || *addrs == "" || *deployPub == "" {
		fmt.Fprintln(os.Stderr, "cicero-node: -bundle, -addrs and -deploy-pub are required")
		flag.Usage()
		os.Exit(2)
	}
	pub, err := hex.DecodeString(*deployPub)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cicero-node: -deploy-pub: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := distrib.RunNode(ctx, distrib.NodeOptions{
		BundlePath: *bundle,
		AddrsPath:  *addrs,
		DeployPub:  pub,
		TracePath:  *trace,
		BootEpoch:  uint32(*bootEpoch),
	}); err != nil {
		fmt.Fprintf(os.Stderr, "cicero-node: %v\n", err)
		os.Exit(1)
	}
}
