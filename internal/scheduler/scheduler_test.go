package scheduler

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"cicero/internal/openflow"
)

// pathUpdates builds n FlowAdd updates in path order s0 -> s1 -> ... .
func pathUpdates(n int, op openflow.FlowModOp) []Update {
	updates := make([]Update, n)
	for i := range updates {
		sw := fmt.Sprintf("s%d", i)
		updates[i] = Update{
			ID: openflow.MsgID{Origin: "ev1", Seq: uint64(i)},
			Mod: openflow.FlowMod{Op: op, Switch: sw, Rule: openflow.Rule{
				Priority: 1,
				Match:    openflow.Match{Src: "a", Dst: "b"},
				Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "next"},
			}},
		}
	}
	return updates
}

// ack acknowledges u as its own switch does.
func ack(e *Engine, u Update) bool { return e.Ack(u.ID, u.Mod.Switch) }

func TestReversePathAddsDependDownstream(t *testing.T) {
	updates := pathUpdates(3, openflow.FlowAdd)
	plan := ReversePath{}.Schedule(updates)
	if err := Validate(plan); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// s0 depends on s1, s1 on s2, s2 on nothing.
	if len(plan[2].DependsOn) != 0 {
		t.Errorf("downstream-most update has deps %v", plan[2].DependsOn)
	}
	if len(plan[1].DependsOn) != 1 || plan[1].DependsOn[0] != updates[2].ID {
		t.Errorf("middle deps = %v, want [%v]", plan[1].DependsOn, updates[2].ID)
	}
	if len(plan[0].DependsOn) != 1 || plan[0].DependsOn[0] != updates[1].ID {
		t.Errorf("upstream deps = %v, want [%v]", plan[0].DependsOn, updates[1].ID)
	}
}

func TestReversePathDeletesDependUpstream(t *testing.T) {
	updates := pathUpdates(3, openflow.FlowDelete)
	plan := ReversePath{}.Schedule(updates)
	if err := Validate(plan); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(plan[0].DependsOn) != 0 {
		t.Errorf("source-side delete has deps %v", plan[0].DependsOn)
	}
	if len(plan[2].DependsOn) != 1 || plan[2].DependsOn[0] != updates[1].ID {
		t.Errorf("downstream delete deps = %v", plan[2].DependsOn)
	}
}

func TestImmediateHasNoDeps(t *testing.T) {
	plan := Immediate{}.Schedule(pathUpdates(4, openflow.FlowAdd))
	for _, su := range plan {
		if len(su.DependsOn) != 0 {
			t.Fatalf("immediate scheduler produced deps: %v", su.DependsOn)
		}
	}
	groups, err := ParallelGroups(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || len(groups[0]) != 4 {
		t.Fatalf("groups = %d levels, want 1 level of 4", len(groups))
	}
}

func TestStaticScheduler(t *testing.T) {
	updates := pathUpdates(3, openflow.FlowAdd)
	s := Static{Label: "dionysus", Deps: func(us []Update) [][]int {
		// Diamond: 1 and 2 depend on 0.
		return [][]int{nil, {0}, {0}}
	}}
	if s.Name() != "dionysus" {
		t.Errorf("Name = %q", s.Name())
	}
	plan := s.Schedule(updates)
	if err := Validate(plan); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	groups, err := ParallelGroups(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups[0]) != 1 || len(groups[1]) != 2 {
		t.Fatalf("unexpected levels: %v", groups)
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	updates := pathUpdates(2, openflow.FlowAdd)
	plan := Plan{
		{Update: updates[0], DependsOn: []openflow.MsgID{updates[1].ID}},
		{Update: updates[1], DependsOn: []openflow.MsgID{updates[0].ID}},
	}
	if err := Validate(plan); !errors.Is(err, ErrCycle) {
		t.Fatalf("expected ErrCycle, got %v", err)
	}
}

func TestValidateDetectsUnknownDependency(t *testing.T) {
	updates := pathUpdates(1, openflow.FlowAdd)
	plan := Plan{{Update: updates[0], DependsOn: []openflow.MsgID{{Origin: "ghost", Seq: 1}}}}
	if err := Validate(plan); !errors.Is(err, ErrUnknownDependency) {
		t.Fatalf("expected ErrUnknownDependency, got %v", err)
	}
}

func TestValidateDetectsDuplicate(t *testing.T) {
	updates := pathUpdates(1, openflow.FlowAdd)
	plan := Plan{{Update: updates[0]}, {Update: updates[0]}}
	if err := Validate(plan); !errors.Is(err, ErrDuplicateUpdate) {
		t.Fatalf("expected ErrDuplicateUpdate, got %v", err)
	}
}

func TestParallelGroupsReversePathIsSequential(t *testing.T) {
	plan := ReversePath{}.Schedule(pathUpdates(5, openflow.FlowAdd))
	groups, err := ParallelGroups(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 5 {
		t.Fatalf("reverse-path over 5 switches should give 5 levels, got %d", len(groups))
	}
	// First level is the downstream-most switch.
	if groups[0][0].Mod.Switch != "s4" {
		t.Errorf("first released switch = %s, want s4", groups[0][0].Mod.Switch)
	}
}

func TestDisjointDependencies(t *testing.T) {
	a := ScheduledUpdate{DependsOn: []openflow.MsgID{{Origin: "e", Seq: 1}}}
	b := ScheduledUpdate{DependsOn: []openflow.MsgID{{Origin: "e", Seq: 2}}}
	c := ScheduledUpdate{DependsOn: []openflow.MsgID{{Origin: "e", Seq: 1}}}
	if !DisjointDependencies(a, b) {
		t.Error("disjoint sets reported as overlapping")
	}
	if DisjointDependencies(a, c) {
		t.Error("overlapping sets reported as disjoint")
	}
}

func TestEngineReleasesInDependencyOrder(t *testing.T) {
	updates := pathUpdates(3, openflow.FlowAdd)
	plan := ReversePath{}.Schedule(updates)
	var released []string
	e := NewEngine(func(su ScheduledUpdate) { released = append(released, su.Mod.Switch) })
	if err := e.Add(plan); err != nil {
		t.Fatalf("Add: %v", err)
	}
	// Only the downstream-most update is released initially.
	if len(released) != 1 || released[0] != "s2" {
		t.Fatalf("initial releases = %v, want [s2]", released)
	}
	ack(e, updates[2])
	if len(released) != 2 || released[1] != "s1" {
		t.Fatalf("after ack s2: %v, want [s2 s1]", released)
	}
	ack(e, updates[1])
	if len(released) != 3 || released[2] != "s0" {
		t.Fatalf("after ack s1: %v, want [s2 s1 s0]", released)
	}
	ack(e, updates[0])
	if e.InFlight() != 0 || e.Waiting() != 0 {
		t.Fatalf("engine not drained: inflight=%d waiting=%d", e.InFlight(), e.Waiting())
	}
}

func TestEngineIndependentPlansProceedInParallel(t *testing.T) {
	planA := ReversePath{}.Schedule(pathUpdates(2, openflow.FlowAdd))
	updatesB := pathUpdates(2, openflow.FlowAdd)
	for i := range updatesB {
		updatesB[i].ID.Origin = "ev2"
		updatesB[i].Mod.Switch = fmt.Sprintf("t%d", i)
	}
	planB := ReversePath{}.Schedule(updatesB)

	var released []string
	e := NewEngine(func(su ScheduledUpdate) { released = append(released, su.Mod.Switch) })
	if err := e.Add(planA); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(planB); err != nil {
		t.Fatal(err)
	}
	// Both plans' downstream updates are immediately in flight — the
	// paper's inter-event parallelism.
	if len(released) != 2 {
		t.Fatalf("initial releases = %v, want both downstream updates", released)
	}
}

func TestEngineDuplicateAckIgnored(t *testing.T) {
	updates := pathUpdates(2, openflow.FlowAdd)
	plan := ReversePath{}.Schedule(updates)
	count := 0
	e := NewEngine(func(ScheduledUpdate) { count++ })
	if err := e.Add(plan); err != nil {
		t.Fatal(err)
	}
	ack(e, updates[1])
	ack(e, updates[1])
	if count != 2 {
		t.Fatalf("released %d, want 2", count)
	}
	if e.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", e.InFlight())
	}
}

func TestEngineRejectsDuplicatePlanIDs(t *testing.T) {
	updates := pathUpdates(2, openflow.FlowAdd)
	plan := ReversePath{}.Schedule(updates)
	e := NewEngine(func(ScheduledUpdate) {})
	if err := e.Add(plan); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(plan); !errors.Is(err, ErrDuplicateUpdate) {
		t.Fatalf("expected ErrDuplicateUpdate, got %v", err)
	}
}

func TestEngineAckBeforeAddSatisfiesDependency(t *testing.T) {
	// An ack that arrives before the plan registers (possible when a
	// controller joins mid-stream) still satisfies dependencies, once the
	// plan shows it came from the update's own switch.
	updates := pathUpdates(2, openflow.FlowAdd)
	plan := ReversePath{}.Schedule(updates)
	var released []string
	e := NewEngine(func(su ScheduledUpdate) { released = append(released, su.Mod.Switch) })
	ack(e, updates[1])
	if err := e.Add(plan[:1]); !errors.Is(err, ErrUnknownDependency) {
		t.Fatalf("dependency on an update no plan has named: got %v, want ErrUnknownDependency", err)
	}
	if err := e.Add(plan[1:]); err != nil {
		t.Fatal(err)
	}
	// A plan referencing the acked update as an external dependency is
	// satisfied immediately.
	if err := e.Add(plan[:1]); err != nil {
		t.Fatal(err)
	}
	if len(released) != 2 || released[0] != "s1" || released[1] != "s0" {
		t.Fatalf("releases = %v, want [s1 s0]", released)
	}
}

// TestEngineAckFromAnotherSwitchReleasesNothing: an update is acknowledged
// only by the switch it is addressed to. An ack under its id from any other
// sender — in flight, still blocked, or ahead of the plan — leaves its
// dependents where they are, and does not stand in the way of the real ack.
func TestEngineAckFromAnotherSwitchReleasesNothing(t *testing.T) {
	updates := pathUpdates(3, openflow.FlowAdd) // s0 <- s1 <- s2
	plan := ReversePath{}.Schedule(updates)
	var released []string
	e := NewEngine(func(su ScheduledUpdate) { released = append(released, su.Mod.Switch) })

	// Ahead of the plan: a forged ack for s2's update, then the real one for
	// s1's. Only the second pre-satisfies.
	if e.Ack(updates[2].ID, "evil") || e.Ack(updates[1].ID, "s1") {
		t.Fatal("an ack ahead of the plan was accepted before the plan could vouch for it")
	}
	if err := e.Add(plan); err != nil {
		t.Fatal(err)
	}
	if len(released) != 1 || released[0] != "s2" {
		t.Fatalf("after forged early ack: releases = %v, want [s2]", released)
	}
	// In flight (s2) and blocked (s0): forged acks change nothing.
	if e.Ack(updates[2].ID, "evil") || e.Ack(updates[2].ID, "s1") || e.Ack(updates[0].ID, "evil") {
		t.Fatal("an ack from a switch other than the update's was accepted")
	}
	if len(released) != 1 || e.InFlight() != 1 || e.Acked(updates[2].ID) || e.Acked(updates[0].ID) {
		t.Fatalf("forged acks moved the engine: releases = %v, inflight = %d", released, e.InFlight())
	}
	// The real ack still counts, and s1's early ack cascades.
	if !ack(e, updates[2]) {
		t.Fatal("the real ack was refused after a forged one")
	}
	if want := []string{"s2", "s1", "s0"}; !slices.Equal(released, want) {
		t.Fatalf("releases = %v, want %v", released, want)
	}
	if !ack(e, updates[0]) || e.InFlight() != 0 || e.Waiting() != 0 {
		t.Fatalf("engine not drained: inflight=%d waiting=%d", e.InFlight(), e.Waiting())
	}
}

// TestEngineAckBeforePlanStillReleasesPlan covers the harder live-backend
// race: the ack for an update arrives before this controller's BFT
// delivery even creates the plan (the switch applied it via the other
// controllers' quorum). The plan must still be accepted — the decision
// has to reach this replica's audit ledger — and release in topological
// order, with the pre-acked updates counting as instantly satisfied.
func TestEngineAckBeforePlanStillReleasesPlan(t *testing.T) {
	updates := pathUpdates(3, openflow.FlowAdd) // s0 <- s1 <- s2
	plan := ReversePath{}.Schedule(updates)
	var released []string
	e := NewEngine(func(su ScheduledUpdate) { released = append(released, su.Mod.Switch) })
	// Acks for the whole chain land before the plan exists locally.
	ack(e, updates[2])
	ack(e, updates[1])
	if err := e.Add(plan); err != nil {
		t.Fatalf("Add after early acks: %v", err)
	}
	// s2 and s1 release immediately (already applied), in canonical order;
	// s0 releases too because both of its ancestors are satisfied.
	want := []string{"s2", "s1", "s0"}
	if len(released) != len(want) {
		t.Fatalf("releases = %v, want %v", released, want)
	}
	for i := range want {
		if released[i] != want[i] {
			t.Fatalf("releases = %v, want %v", released, want)
		}
	}
	if e.InFlight() != 1 || e.Waiting() != 0 {
		t.Fatalf("inflight=%d waiting=%d, want 1/0 (only s0 unacked)", e.InFlight(), e.Waiting())
	}
	ack(e, updates[0])
	if e.InFlight() != 0 || e.Waiting() != 0 {
		t.Fatalf("engine not drained: inflight=%d waiting=%d", e.InFlight(), e.Waiting())
	}
}

func BenchmarkEngineChain100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		updates := pathUpdates(100, openflow.FlowAdd)
		plan := ReversePath{}.Schedule(updates)
		e := NewEngine(func(ScheduledUpdate) {})
		if err := e.Add(plan); err != nil {
			b.Fatal(err)
		}
		for j := len(updates) - 1; j >= 0; j-- {
			ack(e, updates[j])
		}
	}
}

// TestEngineEarlyAckDefersToLocalRelease covers the live-backend race: a
// switch applies an update once a quorum of OTHER controllers' shares
// arrives, so this controller can receive the ack for an update it has
// not released yet. The dependent must not jump the queue — release order
// stays a topological order of the plan regardless of ack arrival order.
func TestEngineEarlyAckDefersToLocalRelease(t *testing.T) {
	updates := pathUpdates(3, openflow.FlowAdd) // s0 <- s1 <- s2 (reverse path)
	plan := ReversePath{}.Schedule(updates)
	var released []string
	e := NewEngine(func(su ScheduledUpdate) { released = append(released, su.Mod.Switch) })
	if err := e.Add(plan); err != nil {
		t.Fatalf("Add: %v", err)
	}
	// Acks arrive out of order: the middle update (s1) is acknowledged
	// before this controller has released it. s0 must NOT release yet.
	ack(e, updates[1])
	if len(released) != 1 {
		t.Fatalf("dependent released on early ack: %v", released)
	}
	// s2's ack releases s1; s1 is already acked, so s0 cascades
	// immediately. Canonical order restored.
	ack(e, updates[2])
	want := []string{"s2", "s1", "s0"}
	if len(released) != 3 {
		t.Fatalf("releases = %v, want %v", released, want)
	}
	for i := range want {
		if released[i] != want[i] {
			t.Fatalf("releases = %v, want %v", released, want)
		}
	}
	ack(e, updates[0])
	if e.InFlight() != 0 || e.Waiting() != 0 {
		t.Fatalf("engine not drained: inflight=%d waiting=%d", e.InFlight(), e.Waiting())
	}
}
