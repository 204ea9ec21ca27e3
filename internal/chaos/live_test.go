package chaos

import (
	"strings"
	"testing"
	"time"
)

// liveTestProfile puts a profile on a live backend, shrunk so a
// wall-clock run with real crypto stays CI-friendly.
func liveTestProfile(p Profile, backend string, flows int) Profile {
	p.Backend = backend
	p.RacksPerPod = 2
	p.Flows = flows
	p.FlowWindow = 300 * time.Millisecond
	p.DrainTimeout = 60 * time.Second
	return p
}

// requireClean asserts a live run converged with no invariant violations.
func requireClean(t *testing.T, res SeedResult) {
	t.Helper()
	if res.Err != "" {
		t.Fatalf("live run error: %s", res.Err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.CtlRestarts > 0 && res.CtlRecovered != res.CtlRestarts {
		t.Errorf("only %d of %d restarted controllers recovered", res.CtlRecovered, res.CtlRestarts)
	}
	if res.FlowsDone == res.FlowsTotal && !res.TableMatch {
		t.Errorf("all %d flows done but tables diverge from the fault-free reference", res.FlowsTotal)
	}
	t.Logf("flows=%d/%d ctl-restarts=%d sw-restarts=%d tableMatch=%v injected=%v resilience=%+v",
		res.FlowsDone, res.FlowsTotal, res.CtlRestarts, res.SwitchRestarts, res.TableMatch, res.Injected, res.Resilience)
}

// TestLiveChaosMixedInProc is the acceptance campaign on the in-process
// backend: every fault family at once — link faults, controller and switch
// crash/restart windows, partitions, a Byzantine controller — against real
// crypto, converging with zero invariant violations.
func TestLiveChaosMixedInProc(t *testing.T) {
	res := RunSeed(liveTestProfile(MixedProfile(), "inproc", 6), 7)
	requireClean(t, res)
	if res.CtlRestarts == 0 || res.SwitchRestarts == 0 {
		t.Errorf("expected both controller and switch restarts, got ctl=%d sw=%d", res.CtlRestarts, res.SwitchRestarts)
	}
}

// TestLiveChaosCrashRecoveryInProc isolates the crash/restart machinery:
// no link noise, no Byzantine controller — every flow must complete and
// the rebuilt state must match the fault-free reference exactly.
func TestLiveChaosCrashRecoveryInProc(t *testing.T) {
	res := RunSeed(liveTestProfile(CrashProfile(), "inproc", 6), 11)
	requireClean(t, res)
	if res.FlowsDone != res.FlowsTotal {
		t.Errorf("only %d of %d flows completed", res.FlowsDone, res.FlowsTotal)
	}
	if !res.TableMatch {
		t.Errorf("tables diverge from fault-free reference (digest %s)", res.TableDigest)
	}
	if res.CtlRecovered == 0 {
		t.Errorf("no controller completed crash recovery")
	}
	if res.CtlRestarts > 0 && !res.ResyncProven {
		t.Errorf("restarted controllers did not rebuild byte-identical ledgers under benign faults")
	}
}

// TestLiveChaosCanaryInProc plants the verification-bypass canary: with
// switch signature verification disabled, the Byzantine controller's
// forged updates must surface as no-forged-rule violations on the live
// backend too. It runs as a one-seed campaign, whose totals must be that
// seed's result.
func TestLiveChaosCanaryInProc(t *testing.T) {
	p := liveTestProfile(ByzantineProfile(), "inproc", 4)
	p.Canary = true
	camp := Campaign{Profile: p, Seeds: []int64{5}}.Run()
	if len(camp.Results) != 1 {
		t.Fatalf("campaign of one seed returned %d results", len(camp.Results))
	}
	res := camp.Results[0]
	if res.Err != "" {
		t.Fatalf("live run error: %s", res.Err)
	}
	var injected uint64
	for _, n := range res.Injected {
		injected += n
	}
	if camp.Violations != len(res.Violations) || camp.FlowsDone != res.FlowsDone ||
		camp.FlowsTotal != res.FlowsTotal || camp.Injected.Total() != injected || len(camp.ErrSeeds) != 0 {
		t.Errorf("campaign totals violations=%d flows=%d/%d injected=%d errs=%v, its one seed violations=%d flows=%d/%d injected=%d",
			camp.Violations, camp.FlowsDone, camp.FlowsTotal, camp.Injected.Total(), camp.ErrSeeds,
			len(res.Violations), res.FlowsDone, res.FlowsTotal, injected)
	}
	forged := 0
	for _, v := range res.Violations {
		if v.Invariant == InvNoForgedRule && p.CanaryCaught(v) {
			forged++
		}
	}
	if forged == 0 {
		t.Fatalf("canary not caught: expected no-forged-rule violations, got %v", res.Violations)
	}
	if len(camp.FailingSeeds) != 1 || camp.FailingSeeds[0] != 5 {
		t.Errorf("failing seeds %v, want [5]", camp.FailingSeeds)
	}
	t.Logf("canary caught: %d no-forged-rule violations", forged)
}

// TestLiveChaosBatchedMixedInProc is the acceptance campaign with the
// batched hot path on: every fault family at once against batched BFT
// ordering and batch-amortized signing on the in-process backend, with
// real crypto, converging with zero invariant violations (including the
// forged-batch-proof re-check over every batched apply).
func TestLiveChaosBatchedMixedInProc(t *testing.T) {
	p := liveTestProfile(MixedProfile(), "inproc", 6)
	p.BatchSize = 8
	res := RunSeed(p, 7)
	requireClean(t, res)
	batched := false
	for _, e := range res.Trace.Records() {
		if e.Kind == "batch-apply" {
			batched = true
			break
		}
	}
	if !batched {
		t.Error("no batch-amortized update was ever applied; the batched path never engaged")
	}
}

// TestLiveChaosBatchedCanaryInProc plants the verification-bypass canary
// under the batched path on the live backend: the Byzantine controller's
// forged batch roots and spliced contents then apply, and the recorder's
// independent Merkle re-check must surface them.
func TestLiveChaosBatchedCanaryInProc(t *testing.T) {
	p := liveTestProfile(ByzantineProfile(), "inproc", 4)
	p.BatchSize = 8
	p.Canary = true
	caught := 0
	for seed := int64(5); seed < 8 && caught == 0; seed++ {
		res := RunSeed(p, seed)
		if res.Err != "" {
			t.Fatalf("live run error: %s", res.Err)
		}
		for _, v := range res.Violations {
			if v.Invariant == InvBatchProof || v.Invariant == InvNoForgedRule {
				caught++
			}
		}
	}
	if caught == 0 {
		t.Fatal("canary not caught: expected forged-batch-proof or no-forged-rule violations")
	}
	t.Logf("canary caught: %d violations", caught)
}

// TestLiveChaosTCPCrashRestart runs crash/restart windows over real TCP
// sockets: crashes sever connections mid-workload, restarts re-listen and
// redial, and delivery must resume until every flow completes.
func TestLiveChaosTCPCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP chaos run skipped in -short mode")
	}
	res := RunSeed(liveTestProfile(CrashProfile(), "tcp", 5), 3)
	requireClean(t, res)
	if res.FlowsDone != res.FlowsTotal {
		t.Errorf("only %d of %d flows completed over TCP", res.FlowsDone, res.FlowsTotal)
	}
	if !res.TableMatch {
		t.Errorf("tables diverge from fault-free reference (digest %s)", res.TableDigest)
	}
}

// TestLiveDrainPastDeadlineRecordsControllerState gives the drain no time
// at all, as a drain that a wedged flow ran out of has none left: the run
// must still fail for controllers that did not quiesce, and the trace must
// still show where each honest controller stood, one ctl-state record
// apiece from the one poll that comes after the deadline.
func TestLiveDrainPastDeadlineRecordsControllerState(t *testing.T) {
	p := Profile{Name: "drain-expired", Backend: "inproc", RacksPerPod: 2, Flows: 2,
		FlowWindow: 100 * time.Millisecond, DrainTimeout: time.Nanosecond}
	res := RunSeed(p, 1)
	if !strings.Contains(res.Err, "did not quiesce") {
		t.Fatalf("run error %q, want the quiescence failure", res.Err)
	}
	states := make(map[string]int)
	for _, r := range res.Trace.Records() {
		if r.Kind == "ctl-state" {
			states[strings.Fields(r.Detail)[0]]++
		}
	}
	if len(states) != p.Defaulted().Controllers {
		t.Fatalf("ctl-state records by controller %v, want one for each of %d honest controllers", states, p.Defaulted().Controllers)
	}
	for id, n := range states {
		if n != 1 {
			t.Errorf("controller %s has %d ctl-state records, want 1", id, n)
		}
	}
}
