package experiments

import (
	"fmt"

	"cicero/internal/chaos"
	"cicero/internal/metrics"
)

// ChaosCampaign runs a seeded fault-injection campaign per profile and
// reports invariant violations (the paper's §4-§5 safety claims, checked
// adversarially rather than measured). Zero violations everywhere is the
// expected result; any non-zero count is a reproducible counterexample
// whose seed replays bit-identically via cmd/cicero-chaos.
func ChaosCampaign(o Options) (*Result, error) {
	o = o.Defaulted()
	seeds := 25
	if o.Quick {
		seeds = 8
	}
	profiles := []chaos.Profile{
		chaos.LinksProfile(),
		chaos.CrashProfile(),
		chaos.PartitionsProfile(),
		chaos.ByzantineProfile(),
		chaos.MixedProfile(),
	}
	tbl := metrics.NewTable("chaos campaigns (invariants: consistency, blackhole/loop freedom, agreement, no-forged-rule)",
		"profile", "seeds", "violations", "flows done", "faults injected", "msgs dropped", "updates rejected")
	injected := metrics.NewCounterSet()
	totalViolations := 0
	for _, p := range profiles {
		res := chaos.Campaign{Profile: p, Seeds: chaos.Seeds(o.Seed, seeds)}.Run()
		var dropped, rejected uint64
		for _, sr := range res.Results {
			dropped += sr.Net.DroppedInjected
			rejected += sr.UpdatesRejected
		}
		tbl.AddRow(p.Name, seeds, res.Violations,
			fmt.Sprintf("%d/%d", res.FlowsDone, res.FlowsTotal),
			res.Injected.Total(), dropped, rejected)
		injected.Merge(res.Injected)
		totalViolations += res.Violations
	}
	out := &Result{Name: "chaos", Tables: []*metrics.Table{tbl}, Notes: []string{
		"per-fault injection counts: " + injected.String(),
		fmt.Sprintf("replay any seed with: cicero-chaos -profile <name> -replay <seed> (seeds start at %d)", o.Seed),
	}}
	if totalViolations == 0 {
		out.Notes = append(out.Notes, "zero invariant violations across all profiles (expected)")
	} else {
		out.fail("%d INVARIANT VIOLATIONS detected — see failing seeds above", totalViolations)
	}
	return out, nil
}
