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
// With -live, the same fault families run wall-clock on a live backend
// (in-process channels or localhost TCP) and the invariant plane shifts to
// convergence checks: crashed nodes restart and must provably
// resynchronize, and the quiesced state must match a fault-free simnet
// reference. Live runs are not bit-reproducible; seeds fix what is
// injected, not how it interleaves. -live with -replay therefore re-rolls
// the interleaving of that one seed, but retains and prints the full
// debugging trace: every broadcast message (kind "bft"), the controllers'
// broadcast coordinates each time they change while the drain awaits
// quiescence ("ctl-state"), and every snapshotted ledger entry ("ledger").
//
// Exit status is 1 when any invariant violation (or run error) occurred,
// 0 otherwise — except with -canary, where catching the planted mutation
// is the expected outcome and exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
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
		workers     = flag.Int("workers", 0, "parallel seeds (0 = GOMAXPROCS)")
		replay      = flag.Int64("replay", -1, "replay a single seed with full trace output")
		canary      = flag.Bool("canary", false, "plant the verification-bypass mutation (the checker must catch it)")
		verbose     = flag.Bool("v", false, "per-seed progress lines")
		live        = flag.String("live", "", "run wall-clock on a live backend: inproc | tcp (empty = simulator)")
		flowWindow  = flag.Int("flow-window-ms", 0, "live: wall-clock fault/flow window in ms (0 = default)")
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
	p.CanarySkipVerify = *canary
	if p.Metadata {
		// The metadata profile's canary is the store-verification bypass
		// (planted rollback/forgery/freeze must be caught), not the
		// rule-check skip.
		p.CanarySkipVerify = false
		p.CanaryMetaBypass = *canary
	}
	p.BatchSize = *batch
	p.BatchDelay = *batchDelay

	if *live != "" {
		opt := chaos.LiveOptions{
			Backend:      *live,
			FlowWindow:   time.Duration(*flowWindow) * time.Millisecond,
			DrainTimeout: time.Duration(*drainSecs) * time.Second,
		}
		if *replay >= 0 {
			opt.Seed = *replay
			return replayLive(p, opt, *canary)
		}
		return runLive(p, opt, *seedStart, *seeds, *canary, *verbose)
	}

	if *replay >= 0 {
		return replaySeed(p, *replay, *canary)
	}

	c := chaos.Campaign{
		Profile: p,
		Seeds:   chaos.Seeds(*seedStart, *seeds),
		Workers: *workers,
	}
	if *verbose {
		c.Progress = func(done, total int, res chaos.SeedResult) {
			status := "ok"
			if len(res.Violations) > 0 {
				status = fmt.Sprintf("VIOLATIONS=%d", len(res.Violations))
			} else if res.Err != "" {
				status = "err=" + res.Err
			}
			fmt.Printf("[%d/%d] seed=%d flows=%d/%d trace=%s %s\n",
				done, total, res.Seed, res.FlowsDone, res.FlowsTotal, res.TraceHash[:12], status)
		}
	}
	start := time.Now()
	res := c.Run()
	fmt.Printf("%s wall=%v\n", res.Summary(), time.Since(start).Round(time.Millisecond))
	res.Injected.Table("injected faults").Render(os.Stdout)
	for _, sr := range res.Results {
		for _, v := range sr.Violations {
			fmt.Printf("  %s (replay: cicero-chaos -profile %s%s -replay %d)\n",
				v, p.Name, canaryFlag(*canary), sr.Seed)
		}
	}
	if *canary {
		// The campaign planted a mutation; finding it means the invariant
		// plane works.
		if res.Violations == 0 {
			fmt.Println("CANARY MISSED: verification bypass was not detected")
			return 1
		}
		fmt.Printf("canary caught on %d seed(s)\n", len(res.FailingSeeds))
		return 0
	}
	if res.Violations > 0 || len(res.ErrSeeds) > 0 {
		return 1
	}
	return 0
}

// replaySeed reruns one seed with the trace retained and prints every
// violation with its minimal sub-trace, then the trace hash for
// bit-identical comparison against the original campaign run.
func replaySeed(p chaos.Profile, seed int64, canary bool) int {
	res := chaos.RunSeed(p, seed)
	fmt.Printf("seed=%d profile=%s flows=%d/%d applied=%d rejected=%d events=%d trace=%s\n",
		res.Seed, res.Profile, res.FlowsDone, res.FlowsTotal,
		res.UpdatesApplied, res.UpdatesRejected, res.SimEvents, res.TraceHash)
	fmt.Printf("net: sent=%d delivered=%d dropped=%d (crash=%d partition=%d injected=%d)\n",
		res.Net.Sent, res.Net.Delivered, res.Net.Dropped,
		res.Net.DroppedCrash, res.Net.DroppedPartition, res.Net.DroppedInjected)
	return replayVerdict(res.Violations, res.Err, canary)
}

// replayLive runs one live seed with the debugging trace retained and
// prints it in full, then the verdict like the simulator replay does.
func replayLive(p chaos.Profile, opt chaos.LiveOptions, canary bool) int {
	res := chaos.ReplayLiveSeed(p, opt)
	for _, e := range res.Trace.Records() {
		fmt.Println(e)
	}
	fmt.Printf("\nlive=%s seed=%d profile=%s flows=%d/%d applied=%d rejected=%d ctl-restarts=%d(recovered %d) sw-restarts=%d tableMatch=%v resyncProven=%v wall=%v\n",
		res.Backend, res.Seed, res.Profile, res.FlowsDone, res.FlowsTotal,
		res.UpdatesApplied, res.UpdatesRejected, res.CtlRestarts, res.CtlRecovered,
		res.SwitchRestarts, res.TableMatch, res.ResyncProven, res.Wall.Round(time.Millisecond))
	fmt.Printf("net: sent=%d delivered=%d dropped=%d (crash=%d partition=%d injected=%d)\n",
		res.Net.Sent, res.Net.Delivered, res.Net.Dropped,
		res.Net.DroppedCrash, res.Net.DroppedPartition, res.Net.DroppedInjected)
	return replayVerdict(res.Violations, res.Err, canary)
}

// replayVerdict prints a replayed seed's run error and violations (each
// with its minimal sub-trace) and returns the exit status: 1 on a run
// error or violation, except that under -canary catching the planted
// mutation is the expected outcome.
func replayVerdict(violations []chaos.Violation, runErr string, canary bool) int {
	if runErr != "" {
		fmt.Printf("run error: %s\n", runErr)
	}
	if len(violations) == 0 {
		fmt.Println("no invariant violations")
		if canary {
			fmt.Println("CANARY MISSED: verification bypass was not detected")
			return 1
		}
	}
	for i, v := range violations {
		fmt.Printf("\nviolation %d: %s\n", i+1, v)
		for _, e := range v.Trace {
			fmt.Printf("    %s\n", e)
		}
	}
	if canary {
		return 0
	}
	if len(violations) > 0 || runErr != "" {
		return 1
	}
	return 0
}

// runLive executes seeds sequentially on a live backend (wall-clock runs
// contend for the same cores, so parallel seeds would perturb each other)
// and applies the same exit-code semantics as the campaign.
func runLive(p chaos.Profile, opt chaos.LiveOptions, seedStart int64, seeds int, canary bool, verbose bool) int {
	violations, errs, caught := 0, 0, 0
	start := time.Now()
	for i := 0; i < seeds; i++ {
		o := opt
		o.Seed = seedStart + int64(i)
		res := chaos.RunLiveSeed(p, o)
		violations += len(res.Violations)
		if res.Err != "" {
			errs++
		}
		if verbose || len(res.Violations) > 0 || res.Err != "" {
			status := "ok"
			if len(res.Violations) > 0 {
				status = fmt.Sprintf("VIOLATIONS=%d", len(res.Violations))
			} else if res.Err != "" {
				status = "err=" + res.Err
			}
			fmt.Printf("[%d/%d] live=%s seed=%d flows=%d/%d ctl-restarts=%d(recovered %d) sw-restarts=%d tableMatch=%v wall=%v %s\n",
				i+1, seeds, res.Backend, res.Seed, res.FlowsDone, res.FlowsTotal,
				res.CtlRestarts, res.CtlRecovered, res.SwitchRestarts, res.TableMatch,
				res.Wall.Round(time.Millisecond), status)
		}
		for _, v := range res.Violations {
			fmt.Printf("  %s\n", v)
			switch v.Invariant {
			case chaos.InvNoForgedRule, chaos.InvBatchProof,
				chaos.InvMetaRollback, chaos.InvMetaForged, chaos.InvStalePolicy:
				caught++
			}
		}
	}
	fmt.Printf("live %s: profile=%s seeds=%d violations=%d errs=%d wall=%v\n",
		opt.Backend, p.Name, seeds, violations, errs, time.Since(start).Round(time.Millisecond))
	if canary {
		if caught == 0 {
			fmt.Println("CANARY MISSED: verification bypass was not detected on the live backend")
			return 1
		}
		fmt.Printf("canary caught: %d violations\n", caught)
		return 0
	}
	if violations > 0 || errs > 0 {
		return 1
	}
	return 0
}

func canaryFlag(on bool) string {
	if on {
		return " -canary"
	}
	return ""
}
