package experiments

import (
	"fmt"

	"cicero/internal/metrics"
	"cicero/internal/synthesis"
)

// Synthesis runs the randomized update-synthesis sweep: generated
// old/new configuration pairs are synthesized into dependency-ordered
// plans certified by per-node local verification, executed through the
// full BFT + threshold-signature pipeline on the simulator and the live
// in-process fabric, and cross-checked at every observed data-plane
// state by the shared invariant walkers. Each seed also plants a
// bad-ordering canary (one dropped dependency edge) that local
// verification must reject.
func Synthesis(o Options) (*Result, error) {
	o = o.Defaulted()
	seeds := 25
	if o.Quick {
		seeds = 5
	}
	res := synthesis.Sweep(synthesis.SweepOptions{
		Seeds:     seeds,
		StartSeed: o.Seed,
		Backends:  []string{"sim", "inproc"},
		Canary:    true,
	})

	tbl := metrics.NewTable("update synthesis sweep (generate -> synthesize -> locally verify -> execute under BFT)",
		"backend", "plans executed", "updates applied", "invariant checks", "violations")
	for _, b := range res.Backends() {
		st := res.PerBackend[b]
		tbl.AddRow(b, st.Executed, st.Applied, st.Checks, st.Violations)
	}

	out := &Result{Name: "synthesis", Tables: []*metrics.Table{tbl}, Notes: []string{
		fmt.Sprintf("%d seeds (starting at %d): %d plans, %d updates, %d two-phase classes",
			res.Seeds, o.Seed, res.Plans, res.Updates, res.TwoPhase),
		fmt.Sprintf("bad-ordering canaries caught by local verification: %d/%d",
			res.CanaryCaught, res.CanaryTotal),
		fmt.Sprintf("rerun with: cicero-synth -seeds %d -seed %d", seeds, o.Seed),
	}}
	if len(res.Failures) > 0 {
		out.fail("%d FAILURES — first: %s", len(res.Failures), res.Failures[0])
	}
	if res.CanaryCaught != res.CanaryTotal {
		out.fail("CANARY MISSED: a dropped dependency edge passed local verification")
	}
	if len(out.Failures) == 0 {
		out.Notes = append(out.Notes, "every plan verified, executed, and confirmed on both backends; every canary caught (expected)")
	}
	return out, nil
}
