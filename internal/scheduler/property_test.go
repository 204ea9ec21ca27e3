package scheduler

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cicero/internal/openflow"
)

// TestEngineRandomDAGProperty drives random DAG plans through the engine
// with a randomized ack schedule and asserts the fundamental invariants:
// every update is released exactly once, and never before all of its
// dependencies were acknowledged.
func TestEngineRandomDAGProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	property := func(seed int64) bool {
		localRng := rand.New(rand.NewSource(seed))
		n := 2 + localRng.Intn(20)
		updates := make([]Update, n)
		for i := range updates {
			updates[i] = Update{
				ID: openflow.MsgID{Origin: "prop", Seq: uint64(i)},
				Mod: openflow.FlowMod{Op: openflow.FlowAdd, Switch: fmt.Sprintf("s%d", i),
					Rule: openflow.Rule{Priority: 1,
						Match:  openflow.Match{Src: "a", Dst: "b"},
						Action: openflow.Action{Type: openflow.ActionOutput, NextHop: "n"}}},
			}
		}
		// Random DAG: each update may depend on a few earlier ones
		// (guaranteeing acyclicity).
		deps := make([][]int, n)
		for i := 1; i < n; i++ {
			k := localRng.Intn(3)
			for j := 0; j < k; j++ {
				deps[i] = append(deps[i], localRng.Intn(i))
			}
		}
		plan := Static{Deps: func([]Update) [][]int { return deps }}.Schedule(updates)
		if err := Validate(plan); err != nil {
			return false
		}

		released := make(map[openflow.MsgID]int)
		acked := make(map[openflow.MsgID]bool)
		var order []ScheduledUpdate
		e := NewEngine(func(su ScheduledUpdate) {
			released[su.ID]++
			// Invariant: all dependencies acked before release.
			for _, dep := range su.DependsOn {
				if !acked[dep] {
					t.Errorf("seed %d: %s released before dependency %s acked", seed, su.ID, dep)
				}
			}
			order = append(order, su)
		})
		if err := e.Add(plan); err != nil {
			return false
		}
		// Ack released updates in random order until drained.
		for len(order) > 0 {
			i := localRng.Intn(len(order))
			su := order[i]
			order = append(order[:i], order[i+1:]...)
			acked[su.ID] = true
			e.Ack(su.ID, su.Mod.Switch)
		}
		// Every update released exactly once.
		for _, u := range updates {
			if released[u.ID] != 1 {
				return false
			}
		}
		return e.InFlight() == 0 && e.Waiting() == 0
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReversePathMixedPlanProperty checks the mixed add/delete plans used
// by route replacement: the first delete never releases before the
// ingress add has been acked.
func TestReversePathMixedPlanProperty(t *testing.T) {
	for n := 2; n <= 6; n++ {
		for d := 1; d <= 3; d++ {
			var updates []Update
			for i := 0; i < n; i++ {
				updates = append(updates, Update{
					ID: openflow.MsgID{Origin: "add", Seq: uint64(i)},
					Mod: openflow.FlowMod{Op: openflow.FlowAdd, Switch: fmt.Sprintf("a%d", i),
						Rule: openflow.Rule{Match: openflow.Match{Src: "x", Dst: "y"},
							Action: openflow.Action{Type: openflow.ActionOutput, NextHop: "n"}}},
				})
			}
			for i := 0; i < d; i++ {
				updates = append(updates, Update{
					ID: openflow.MsgID{Origin: "del", Seq: uint64(i)},
					Mod: openflow.FlowMod{Op: openflow.FlowDelete, Switch: fmt.Sprintf("d%d", i),
						Rule: openflow.Rule{Match: openflow.Match{Src: "x", Dst: "y"}}},
				})
			}
			plan := ReversePath{}.Schedule(updates)
			if err := Validate(plan); err != nil {
				t.Fatalf("n=%d d=%d: %v", n, d, err)
			}
			groups, err := ParallelGroups(plan)
			if err != nil {
				t.Fatalf("n=%d d=%d: %v", n, d, err)
			}
			// The first delete's level must be strictly greater than the
			// ingress add's level (ingress add = updates[0], the deepest
			// add in the reverse chain).
			level := make(map[openflow.MsgID]int)
			for l, g := range groups {
				for _, su := range g {
					level[su.ID] = l
				}
			}
			ingress := updates[0].ID
			firstDel := updates[n].ID
			if level[firstDel] <= level[ingress] {
				t.Fatalf("n=%d d=%d: delete at level %d, ingress add at %d",
					n, d, level[firstDel], level[ingress])
			}
		}
	}
}
