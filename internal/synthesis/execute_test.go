package synthesis

import (
	"testing"
)

// runBoth executes one plan on the simulator and the live in-process
// fabric and requires a clean, complete run on each.
func runBoth(t *testing.T, scn *Scenario, plan *Plan, seed int64) {
	t.Helper()
	for _, backend := range []string{"sim", "inproc"} {
		res, err := Execute(scn, plan, ExecOptions{Backend: backend, Seed: seed})
		if err != nil {
			t.Fatalf("[%s] %v", backend, err)
		}
		if res.Applied != len(plan.Updates) {
			t.Fatalf("[%s] applied %d/%d updates", backend, res.Applied, len(plan.Updates))
		}
		if len(res.Violations) > 0 {
			t.Fatalf("[%s] %d violations, first: %s", backend, len(res.Violations), res.Violations[0])
		}
		if res.Checks == 0 {
			t.Fatalf("[%s] invariant plane never ran", backend)
		}
	}
}

// TestExecuteCrossChecked runs the table-driven scenarios end to end on
// simnet and livenet InProc: full BFT ordering, threshold signatures,
// switch-side verification, and the shared invariant walkers confirming
// every promised property at every observed state.
func TestExecuteCrossChecked(t *testing.T) {
	cases := []struct {
		name string
		scn  func() *Scenario
	}{
		{"fresh-install", freshInstall},
		{"teardown-all", teardownAll},
		{"reroute", rerouteScenario},
		{"swap-gadget", swapGadget},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scn := tc.scn()
			plan, err := Synthesize(scn)
			if err != nil {
				t.Fatal(err)
			}
			runBoth(t, scn, plan, 7)
		})
	}
}

// TestExecuteGeneratedSweep is the miniature acceptance sweep: generated
// scenarios through both backends with canaries, zero tolerance.
func TestExecuteGeneratedSweep(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	res := Sweep(SweepOptions{Seeds: seeds, StartSeed: 11, Canary: true})
	if len(res.Failures) > 0 {
		t.Fatalf("sweep failures: %v", res.Failures)
	}
	if res.CanaryCaught != res.CanaryTotal || res.CanaryTotal != seeds {
		t.Fatalf("canaries caught %d/%d (want %d)", res.CanaryCaught, res.CanaryTotal, seeds)
	}
	for _, b := range res.Backends() {
		st := res.PerBackend[b]
		if st.Executed != res.Plans {
			t.Fatalf("[%s] executed %d/%d plans", b, st.Executed, res.Plans)
		}
		if st.Violations != 0 {
			t.Fatalf("[%s] %d violations", b, st.Violations)
		}
	}
}
