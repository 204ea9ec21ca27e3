// Command cicero-synth exercises the update synthesis engine end to end:
// it generates randomized old/new configuration pairs, synthesizes
// dependency-ordered update plans certified by per-node local
// verification, executes them through the full BFT + threshold-signature
// pipeline on the selected backends, and cross-checks every observed
// data-plane state with the shared invariant walkers.
//
// Usage:
//
//	cicero-synth -seeds 50                       # sweep on sim + inproc
//	cicero-synth -seeds 50 -backends sim         # simulator only
//	cicero-synth -show 17                        # print one seed's plan
//	cicero-synth -seeds 10 -canary=false         # skip the planted mutant
//
// Every seed also plants a bad-ordering canary (one dropped dependency
// edge) unless -canary=false; local verification must reject the mutant.
// Exit status is 1 when any seed fails, violates an invariant, or lets a
// canary through, 0 on a clean sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cicero/internal/synthesis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seeds    = flag.Int("seeds", 10, "number of seeds (starting at -seed)")
		seed     = flag.Int64("seed", 1, "first seed")
		backends = flag.String("backends", "sim,inproc", "comma-separated execution backends: sim | inproc | tcp")
		canary   = flag.Bool("canary", true, "plant a bad-ordering mutant per seed (local verification must catch it)")
		show     = flag.Int64("show", -1, "generate and print a single seed's scenario and plan, then exit")
		verbose  = flag.Bool("v", false, "per-seed progress lines")
	)
	flag.Parse()

	if *show >= 0 {
		return showSeed(*show)
	}

	var list []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			list = append(list, b)
		}
	}
	if len(list) == 0 {
		fmt.Fprintln(os.Stderr, "cicero-synth: no backends given")
		return 2
	}

	opt := synthesis.SweepOptions{
		Seeds:     *seeds,
		StartSeed: *seed,
		Backends:  list,
		Canary:    *canary,
	}
	if *verbose {
		opt.Progress = func(done, total int, s int64, plan *synthesis.Plan, failures int) {
			status := "ok"
			if failures > 0 {
				status = fmt.Sprintf("failures=%d", failures)
			}
			if plan == nil {
				fmt.Printf("[%d/%d] seed=%d GENERATION FAILED\n", done, total, s)
				return
			}
			fmt.Printf("[%d/%d] seed=%d %s %s\n", done, total, s, plan.Summary(), status)
		}
	}

	start := time.Now()
	res := synthesis.Sweep(opt)

	fmt.Printf("synth sweep: seeds=%d plans=%d updates=%d two-phase-classes=%d wall=%v\n",
		res.Seeds, res.Plans, res.Updates, res.TwoPhase, time.Since(start).Round(time.Millisecond))
	for _, b := range res.Backends() {
		st := res.PerBackend[b]
		fmt.Printf("  [%s] executed=%d applied=%d checks=%d violations=%d\n",
			b, st.Executed, st.Applied, st.Checks, st.Violations)
	}
	if *canary {
		fmt.Printf("  canary: caught %d/%d planted bad orderings\n", res.CanaryCaught, res.CanaryTotal)
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAIL: %s\n", f)
	}

	if len(res.Failures) > 0 || res.Violations() > 0 {
		return 1
	}
	if *canary && res.CanaryCaught != res.CanaryTotal {
		fmt.Println("CANARY MISSED: a dropped dependency edge passed local verification")
		return 1
	}
	return 0
}

// showSeed generates one seed and prints the scenario, the synthesized
// plan, and the canary mutant local verification rejects.
func showSeed(seed int64) int {
	scn, plan, err := synthesis.Generate(seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cicero-synth: %v\n", err)
		return 1
	}
	oldRules, newRules := 0, 0
	for _, rs := range scn.Old {
		oldRules += len(rs)
	}
	for _, rs := range scn.New {
		newRules += len(rs)
	}
	fmt.Printf("scenario %s: switches=%d hosts=%d rules old=%d new=%d policies=%d\n",
		scn.Name, len(scn.Switches()), len(scn.Hosts), oldRules, newRules, len(scn.Props.Waypoints))
	for _, p := range scn.Props.Waypoints {
		fmt.Printf("  policy: %s\n", p.String())
	}
	fmt.Printf("plan: %s\n", plan.Summary())
	for _, c := range plan.Classes {
		fmt.Printf("  class: %s\n", c.String())
	}
	for i, u := range plan.Updates {
		fmt.Printf("  [%d] %s %s deps=%v\n", i, u.ID, u.Mod, plan.Deps[i])
	}
	mutant, edge, ok := synthesis.PlantBadOrdering(scn, plan, seed)
	if !ok {
		fmt.Println("canary: no plantable bad ordering")
		return 0
	}
	if err := synthesis.VerifyPlan(scn, mutant); err != nil {
		fmt.Printf("canary: dropping edge %s rejected by local verification:\n  %v\n", edge, err)
		return 0
	}
	fmt.Printf("CANARY MISSED: dropping edge %s passed local verification\n", edge)
	return 1
}
