package scheduler

import (
	"slices"
	"testing"

	"cicero/internal/openflow"
)

func plannedUpdates(origin string, n int) []Update {
	out := make([]Update, n)
	for i := range out {
		out[i] = Update{
			ID: openflow.MsgID{Origin: origin, Seq: uint64(i)},
			Mod: openflow.FlowMod{Op: openflow.FlowAdd, Switch: "s0",
				Rule: openflow.Rule{Priority: 10, Cookie: uint64(i + 1)}},
		}
	}
	return out
}

func TestPlannedRegisteredOrigin(t *testing.T) {
	sched := Planned{ByOrigin: map[string][][]int{
		"ev#1/d0": {nil, {0}, {1}},
	}}
	plan := sched.Schedule(plannedUpdates("ev#1/d0", 3))
	if err := validate(plan); err != nil {
		t.Fatal(err)
	}
	if len(plan[0].DependsOn) != 0 {
		t.Fatalf("update 0 has deps %v, want none", plan[0].DependsOn)
	}
	for i := 1; i < 3; i++ {
		if len(plan[i].DependsOn) != 1 || plan[i].DependsOn[0] != plan[i-1].ID {
			t.Fatalf("update %d deps %v, want chain on %s", i, plan[i].DependsOn, plan[i-1].ID)
		}
	}
}

// TestStaticScheduler checks a caller-supplied positional graph: a
// diamond, with positions that name no other update (out of range,
// negative, and the update's own), becomes ids, and the engine releases
// it level by level.
func TestStaticScheduler(t *testing.T) {
	sched := Planned{ByOrigin: map[string][][]int{
		"ev#2/d0": {{3, -1}, {0, 1}, {0}},
	}}
	updates := plannedUpdates("ev#2/d0", 3)
	diamond := sched.Schedule(updates)
	root := diamond[0].ID
	if len(diamond[0].DependsOn) != 0 || !slices.Equal(diamond[1].DependsOn, []openflow.MsgID{root}) ||
		!slices.Equal(diamond[2].DependsOn, []openflow.MsgID{root}) {
		t.Fatalf("diamond deps %v %v %v, want none, [%s], [%s]",
			diamond[0].DependsOn, diamond[1].DependsOn, diamond[2].DependsOn, root, root)
	}
	var released []openflow.MsgID
	e := NewEngine(func(su ScheduledUpdate) { released = append(released, su.ID) })
	if err := e.Add(diamond); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(released, []openflow.MsgID{root}) {
		t.Fatalf("first level = %v, want [%s]", released, root)
	}
	ack(e, updates[0])
	if len(released) != 3 {
		t.Fatalf("second level: released %v, want both dependents after the root's ack", released)
	}
	ack(e, updates[1])
	ack(e, updates[2])
	drained(t, e)
}

func TestPlannedUnknownOriginFallsBack(t *testing.T) {
	sched := Planned{ByOrigin: map[string][][]int{"ev#1/d0": {nil}}}
	updates := plannedUpdates("other#9/d0", 3)
	got := sched.Schedule(updates)
	want := ReversePath{}.Schedule(updates)
	if len(got) != len(want) {
		t.Fatalf("plan lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i].DependsOn) != len(want[i].DependsOn) {
			t.Fatalf("update %d: fallback deps %v, want reverse-path deps %v",
				i, got[i].DependsOn, want[i].DependsOn)
		}
		for j := range got[i].DependsOn {
			if got[i].DependsOn[j] != want[i].DependsOn[j] {
				t.Fatalf("update %d dep %d: %s vs %s", i, j, got[i].DependsOn[j], want[i].DependsOn[j])
			}
		}
	}
}
