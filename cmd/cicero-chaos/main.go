// Command cicero-chaos runs deterministic fault-injection campaigns
// against the Cicero protocol and checks online invariants (consistency,
// blackhole/loop freedom, BFT agreement, no-forged-rule). Any failing seed
// is replayable bit-identically.
//
// Usage:
//
//	cicero-chaos -profile mixed -seeds 200            # campaign
//	cicero-chaos -profile mixed -replay 17            # replay one seed
//	cicero-chaos -profile byzantine -canary -seeds 10 # prove the checker
//	cicero-chaos -profile mixed -live inproc -seeds 3 # wall-clock faults
//	cicero-chaos -profile crash -live tcp -replay 3   # one live seed, full trace
//
// With -live, the same campaign runs wall-clock on a live backend
// (in-process channels or localhost TCP), one seed at a time (-workers has
// no effect), and the invariant plane shifts to convergence checks:
// crashed nodes restart and must provably resynchronize, and the quiesced
// state must match a fault-free simnet reference. -flow-window-ms sets
// the window flows arrive in on either backend; on a live one the fault
// windows scale from it. Live runs are not bit-reproducible; seeds fix
// what is injected, not how it interleaves. A simulator replay prints the
// trace hash and each violation with its minimal sub-trace. A live replay
// re-rolls the interleaving of that one seed, and prints every trace
// record: every broadcast message (kind "bft"), the controllers'
// broadcast coordinates each time they change while the drain awaits
// quiescence ("ctl-state"), and every snapshotted ledger entry ("ledger").
//
// Exit status is 1 when any invariant violation (or run error) occurred,
// 0 otherwise. With -canary it is 0 only when the planted mutation was
// caught (chaos.Profile.CanaryCaught), and 1 with "CANARY MISSED"
// otherwise: a violation of another invariant is no catch.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cicero/internal/chaos"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		profileName = flag.String("profile", "mixed", "links | crash | partitions | byzantine | metadata | mixed")
		seeds       = flag.Int("seeds", 50, "number of seeds (starting at -seed)")
		seedStart   = flag.Int64("seed", 1, "first seed")
		flows       = flag.Int("flows", 0, "flows per seed (0 = profile default)")
		budgetMS    = flag.Int("budget-ms", 0, "virtual-time budget per seed in ms (0 = profile default)")
		racks       = flag.Int("racks", 0, "racks per pod (0 = profile default)")
		controllers = flag.Int("controllers", 0, "controllers per domain (0 = profile default)")
		workers     = flag.Int("workers", 0, "parallel simulator seeds (0 = GOMAXPROCS; a live backend runs one at a time)")
		replay      = flag.Int64("replay", -1, "replay a single seed with full trace output")
		canary      = flag.Bool("canary", false, "plant the verification-bypass mutation (the checker must catch it)")
		verbose     = flag.Bool("v", false, "per-seed progress lines")
		live        = flag.String("live", "", "run wall-clock on a live backend: inproc | tcp (empty = simulator)")
		flowWindow  = flag.Int("flow-window-ms", 0, "window flow arrivals spread over in ms, simulated or wall-clock (0 = backend default)")
		drainSecs   = flag.Int("drain-s", 0, "live: drain/convergence timeout in seconds (0 = default)")
		batch       = flag.Int("batch", 0, "batch size (>1 runs the batched hot path under the campaign)")
		batchDelay  = flag.Duration("batch-delay", 0, "max wait before a partial batch is ordered (default 5ms)")
	)
	flag.Parse()

	p, err := chaos.ProfileByName(*profileName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *flows > 0 {
		p.Flows = *flows
	}
	if *budgetMS > 0 {
		p.SimBudget = time.Duration(*budgetMS) * time.Millisecond
	}
	if *racks > 0 {
		p.RacksPerPod = *racks
	}
	if *controllers > 0 {
		p.Controllers = *controllers
	}
	p.Backend = *live
	p.FlowWindow = time.Duration(*flowWindow) * time.Millisecond
	p.DrainTimeout = time.Duration(*drainSecs) * time.Second
	p.Canary = *canary
	p.BatchSize = *batch
	p.BatchDelay = *batchDelay

	if *replay >= 0 {
		return replaySeed(p, *replay)
	}

	c := chaos.Campaign{
		Profile: p,
		Seeds:   chaos.Seeds(*seedStart, *seeds),
		Workers: *workers,
	}
	if *verbose {
		c.Progress = func(done, total int, res chaos.SeedResult) {
			line := fmt.Sprintf("[%d/%d] seed=%d flows=%d/%d trace=%.12s",
				done, total, res.Seed, res.FlowsDone, res.FlowsTotal, res.TraceHash)
			if p.Backend != "" {
				line += fmt.Sprintf(" live=%s ctl-restarts=%d(recovered %d) sw-restarts=%d tableMatch=%v wall=%v",
					p.Backend, res.CtlRestarts, res.CtlRecovered, res.SwitchRestarts, res.TableMatch,
					res.Wall.Round(time.Millisecond))
			}
			status := "ok"
			if len(res.Violations) > 0 {
				status = fmt.Sprintf("VIOLATIONS=%d", len(res.Violations))
			} else if res.Err != "" {
				status = "err=" + res.Err
			}
			fmt.Println(line, status)
		}
	}
	start := time.Now()
	res := c.Run()
	fmt.Printf("%s wall=%v\n", res.Summary(), time.Since(start).Round(time.Millisecond))
	res.Injected.Table("injected faults").Render(os.Stdout)
	caught := 0
	for _, sr := range res.Results {
		if sr.Err != "" {
			fmt.Printf("  seed=%d run error: %s\n", sr.Seed, sr.Err)
		}
		seedCaught := false
		for _, v := range sr.Violations {
			fmt.Printf("  %s (replay: %s -replay %d)\n", v, replayCommand(), sr.Seed)
			seedCaught = seedCaught || p.CanaryCaught(v)
		}
		if seedCaught {
			caught++
		}
	}
	if p.Canary {
		if caught == 0 {
			fmt.Println("CANARY MISSED: verification bypass was not detected")
			return 1
		}
		fmt.Printf("canary caught on %d seed(s)\n", caught)
		return 0
	}
	if res.Violations > 0 || len(res.ErrSeeds) > 0 {
		return 1
	}
	return 0
}

// replayCommand is the command line that replays a seed of this run: every
// flag set, less the ones that pick or report seeds.
func replayCommand() string {
	cmd := []string{"cicero-chaos"}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seeds", "seed", "workers", "v":
			return
		}
		if f.Value.String() == "true" {
			cmd = append(cmd, "-"+f.Name)
		} else {
			cmd = append(cmd, "-"+f.Name, f.Value.String())
		}
	})
	return strings.Join(cmd, " ")
}

// replaySeed reruns one seed with the trace retained. A simulator replay
// prints the trace hash, for bit-identical comparison against the original
// campaign run; a live replay prints every trace record first.
func replaySeed(p chaos.Profile, seed int64) int {
	res := chaos.RunSeed(p, seed)
	if p.Backend == "" {
		fmt.Printf("seed=%d profile=%s flows=%d/%d applied=%d rejected=%d events=%d trace=%s\n",
			res.Seed, res.Profile, res.FlowsDone, res.FlowsTotal,
			res.UpdatesApplied, res.UpdatesRejected, res.SimEvents, res.TraceHash)
	} else {
		if res.Trace != nil {
			for _, e := range res.Trace.Records() {
				fmt.Println(e)
			}
		}
		fmt.Printf("\nlive=%s seed=%d profile=%s flows=%d/%d applied=%d rejected=%d ctl-restarts=%d(recovered %d) sw-restarts=%d tableMatch=%v resyncProven=%v wall=%v\n",
			p.Backend, res.Seed, res.Profile, res.FlowsDone, res.FlowsTotal,
			res.UpdatesApplied, res.UpdatesRejected, res.CtlRestarts, res.CtlRecovered,
			res.SwitchRestarts, res.TableMatch, res.ResyncProven, res.Wall.Round(time.Millisecond))
	}
	fmt.Printf("net: sent=%d delivered=%d dropped=%d (crash=%d partition=%d injected=%d)\n",
		res.Net.Sent, res.Net.Delivered, res.Net.Dropped,
		res.Net.DroppedCrash, res.Net.DroppedPartition, res.Net.DroppedInjected)
	return replayVerdict(p, res)
}

// replayVerdict prints a replayed seed's run error and violations (each
// with its minimal sub-trace) and returns the exit status: 1 on a run
// error or violation, except that under -canary only catching the planted
// mutation counts, and exits 0.
func replayVerdict(p chaos.Profile, res chaos.SeedResult) int {
	if res.Err != "" {
		fmt.Printf("run error: %s\n", res.Err)
	}
	if len(res.Violations) == 0 {
		fmt.Println("no invariant violations")
	}
	caught := false
	for i, v := range res.Violations {
		fmt.Printf("\nviolation %d: %s\n", i+1, v)
		for _, e := range v.Trace {
			fmt.Printf("    %s\n", e)
		}
		caught = caught || p.CanaryCaught(v)
	}
	if p.Canary {
		if !caught {
			fmt.Println("CANARY MISSED: verification bypass was not detected")
			return 1
		}
		return 0
	}
	if len(res.Violations) > 0 || res.Err != "" {
		return 1
	}
	return 0
}
