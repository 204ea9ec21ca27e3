package chaos

import (
	"testing"
)

// fastProfile shrinks a profile for unit-test latency.
func fastProfile(p Profile) Profile {
	p.Flows = 8
	return p
}

func TestDeterministicTraceHash(t *testing.T) {
	p := fastProfile(MixedProfile())
	a := RunSeed(p, 7)
	b := RunSeed(p, 7)
	if a.Err != "" || b.Err != "" {
		t.Fatalf("run errors: %q %q", a.Err, b.Err)
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("same seed, different trace hash:\n  %s\n  %s", a.TraceHash, b.TraceHash)
	}
	if len(a.Trace.Records()) == 0 {
		t.Fatal("empty trace")
	}
	// Different seeds must explore different schedules.
	c := RunSeed(p, 8)
	if c.TraceHash == a.TraceHash {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestMixedCampaignNoViolations(t *testing.T) {
	res := Campaign{Profile: fastProfile(MixedProfile()), Seeds: Seeds(1, 15)}.Run()
	if res.Violations != 0 {
		for _, sr := range res.Results {
			for _, v := range sr.Violations {
				t.Errorf("violation: %s", v)
			}
		}
		t.Fatalf("mixed campaign reported %d violations (seeds %v)", res.Violations, res.FailingSeeds)
	}
	if res.FlowsDone == 0 {
		t.Fatal("no flow ever completed; campaign exercised nothing")
	}
	if res.Injected.Total() == 0 {
		t.Fatal("no fault was ever injected; campaign exercised nothing")
	}
}

func TestCanaryCaughtByNoForgedRule(t *testing.T) {
	p := fastProfile(ByzantineProfile())
	p.Canary = true
	caught := false
	for _, seed := range Seeds(1, 5) {
		res := RunSeed(p, seed)
		for _, v := range res.Violations {
			if v.Invariant == InvNoForgedRule {
				caught = true
				if len(v.Trace) == 0 {
					t.Errorf("violation without a related trace: %s", v)
				}
			}
		}
		if caught {
			break
		}
	}
	if !caught {
		t.Fatal("canary (verification bypass) was never caught by the no-forged-rule invariant")
	}
}

func TestByzantineRejectedWithoutCanary(t *testing.T) {
	p := fastProfile(ByzantineProfile())
	var rejected uint64
	for _, seed := range Seeds(1, 3) {
		res := RunSeed(p, seed)
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: unexpected violations: %v", seed, res.Violations)
		}
		rejected += res.UpdatesRejected
	}
	if rejected == 0 {
		t.Fatal("no forged update was ever rejected; Byzantine injection exercised nothing")
	}
}

// batchProfile turns on the batched hot path for a campaign profile.
func batchProfile(p Profile) Profile {
	p.BatchSize = 8
	return p
}

// TestBatchedMixedCampaignNoViolations runs the acceptance campaign with
// the batched hot path on: every fault family — including the Byzantine
// batch mutations (forged roots, content splices, garbage root shares) —
// against batch ordering and batch-amortized signing, with zero invariant
// violations and the batch path demonstrably exercised.
func TestBatchedMixedCampaignNoViolations(t *testing.T) {
	p := batchProfile(fastProfile(MixedProfile()))
	batchApplies := 0
	for _, seed := range Seeds(1, 8) {
		res := RunSeed(p, seed)
		if res.Err != "" {
			t.Fatalf("seed %d: run error: %s", seed, res.Err)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d: violation: %s", seed, v)
		}
		for _, e := range res.Trace.Records() {
			if e.Kind == "batch-apply" {
				batchApplies++
			}
		}
	}
	if batchApplies == 0 {
		t.Fatal("no batch-amortized update was ever applied; the batched path never engaged")
	}
}

// TestBatchedByzantineRejected proves the Merkle binding: with real
// verification on, every forged-root, content-splice, and fabricated batch
// quorum from the Byzantine controller is rejected and the campaign stays
// violation-free.
func TestBatchedByzantineRejected(t *testing.T) {
	p := batchProfile(fastProfile(ByzantineProfile()))
	var rejected uint64
	for _, seed := range Seeds(1, 4) {
		res := RunSeed(p, seed)
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: unexpected violations: %v", seed, res.Violations)
		}
		rejected += res.UpdatesRejected
	}
	if rejected == 0 {
		t.Fatal("no forged batch update was ever rejected; Byzantine batch injection exercised nothing")
	}
}

// TestBatchedCanaryCaught plants the verification-bypass canary under the
// batched path: forged batch content then applies, and the independent
// proof re-check must surface it as a forged-batch-proof violation.
func TestBatchedCanaryCaught(t *testing.T) {
	p := batchProfile(fastProfile(ByzantineProfile()))
	p.Canary = true
	caught := false
	for _, seed := range Seeds(1, 6) {
		res := RunSeed(p, seed)
		for _, v := range res.Violations {
			if v.Invariant == InvBatchProof {
				caught = true
				if len(v.Trace) == 0 {
					t.Errorf("violation without a related trace: %s", v)
				}
			}
		}
		if caught {
			break
		}
	}
	if !caught {
		t.Fatal("canary (verification bypass) was never caught by the forged-batch-proof invariant")
	}
}

// TestCanaryVerdict pins which violations catch which canary: the switch
// canary only the rule checks, the store canary only the metadata-store
// checks, and neither a violation of another invariant.
func TestCanaryVerdict(t *testing.T) {
	switchCanary := Profile{Name: "links", Canary: true}
	storeCanary := Profile{Name: "metadata", Metadata: true, Canary: true}
	for _, tc := range []struct {
		p         Profile
		invariant string
		caught    bool
	}{
		{switchCanary, InvBFTAgreement, false},
		{storeCanary, InvBFTAgreement, false},
		{switchCanary, InvNoForgedRule, true},
		{switchCanary, InvBatchProof, true},
		{storeCanary, InvNoForgedRule, false},
		{storeCanary, InvMetaForged, true},
		{storeCanary, InvMetaRollback, true},
		{storeCanary, InvStalePolicy, true},
		{switchCanary, InvMetaForged, false},
		{switchCanary, InvReference, false},
	} {
		if got := tc.p.CanaryCaught(Violation{Invariant: tc.invariant}); got != tc.caught {
			t.Errorf("%s canary, %s: caught=%v, want %v", tc.p.Name, tc.invariant, got, tc.caught)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"links", "crash", "partitions", "byzantine", "mixed"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("ProfileByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("profile %q has Name %q", name, p.Name)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}
