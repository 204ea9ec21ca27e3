package scheduler

import (
	"errors"
	"fmt"
	"testing"

	"cicero/internal/openflow"
)

// migrationFor builds a Migration with synthetic updates per path switch.
func migrationFor(flowID string, bw float64, oldPath, newPath []string) Migration {
	m := Migration{FlowID: flowID, Bandwidth: bw, OldPath: oldPath, NewPath: newPath}
	for i, sw := range newPath {
		m.AddUpdates = append(m.AddUpdates, Update{
			ID: openflow.MsgID{Origin: flowID + "/add", Seq: uint64(i)},
			Mod: openflow.FlowMod{Op: openflow.FlowAdd, Switch: sw, Rule: openflow.Rule{
				Priority: 1,
				Match:    openflow.Match{Src: flowID, Dst: "dst"},
				Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "n"},
			}},
		})
	}
	for i, sw := range oldPath {
		m.DelUpdates = append(m.DelUpdates, Update{
			ID: openflow.MsgID{Origin: flowID + "/del", Seq: uint64(i)},
			Mod: openflow.FlowMod{Op: openflow.FlowDelete, Switch: sw, Rule: openflow.Rule{
				Match: openflow.Match{Src: flowID, Dst: "dst"},
			}},
		})
	}
	return m
}

// uniformCapacity returns constant-capacity / zero-usage functions.
func uniformCapacity(c float64) (func(a, b string) float64, func(a, b string) float64) {
	return func(a, b string) float64 { return c },
		func(a, b string) float64 { return 0 }
}

// replayCapacityCheck executes a plan through the engine, tracking link
// usage as adds/deletes apply; it returns the worst over-provisioning seen.
func replayCapacityCheck(t *testing.T, plan Plan, migrations []Migration, capacity float64) float64 {
	t.Helper()
	// Map update id -> (migration, isAdd).
	type effect struct {
		m     *Migration
		isAdd bool
	}
	effects := make(map[openflow.MsgID]effect)
	for i := range migrations {
		m := &migrations[i]
		for _, u := range m.AddUpdates {
			effects[u.ID] = effect{m: m, isAdd: true}
		}
		for _, u := range m.DelUpdates {
			effects[u.ID] = effect{m: m, isAdd: false}
		}
	}
	reserved := make(map[[2]string]float64)
	for i := range migrations {
		for l := range pathLinks(migrations[i].OldPath) {
			reserved[l] += migrations[i].Bandwidth
		}
	}
	worst := 0.0
	// Adds reserve the whole new path when the flow's FIRST add applies
	// (conservative: traffic may start using partial segments); deletes
	// release the old path when the flow's LAST delete applies.
	addsSeen := make(map[string]int)
	delsSeen := make(map[string]int)
	var order []ScheduledUpdate
	e := NewEngine(func(su ScheduledUpdate) { order = append(order, su) })
	if err := e.Add(plan); err != nil {
		t.Fatalf("engine.Add: %v", err)
	}
	for len(order) > 0 {
		su := order[0]
		order = order[1:]
		if eff, ok := effects[su.ID]; ok {
			if eff.isAdd {
				addsSeen[eff.m.FlowID]++
				if addsSeen[eff.m.FlowID] == 1 {
					old := pathLinks(eff.m.OldPath)
					for l := range pathLinks(eff.m.NewPath) {
						if !old[l] {
							reserved[l] += eff.m.Bandwidth
							if reserved[l]-capacity > worst {
								worst = reserved[l] - capacity
							}
						}
					}
				}
			} else {
				delsSeen[eff.m.FlowID]++
				if delsSeen[eff.m.FlowID] == len(eff.m.DelUpdates) {
					newLinks := pathLinks(eff.m.NewPath)
					for l := range pathLinks(eff.m.OldPath) {
						if !newLinks[l] {
							reserved[l] -= eff.m.Bandwidth
						}
					}
				}
			}
		}
		e.Ack(su.ID, su.Mod.Switch)
	}
	if e.InFlight() != 0 || e.Waiting() != 0 {
		t.Fatalf("plan did not drain: inflight=%d waiting=%d", e.InFlight(), e.Waiting())
	}
	return worst
}

// TestMigrationSwapRequiresOrdering reproduces the paper's Fig. 3: flow A
// vacates a full link before flow B moves onto it. Unordered application
// would transiently put 10 units on a 5-unit link.
func TestMigrationSwapRequiresOrdering(t *testing.T) {
	// Flow A: l1 -> l2 (frees l1). Flow B: l3 -> l1 (needs l1 free).
	migrations := []Migration{
		migrationFor("A", 5, []string{"x", "y"}, []string{"x", "z", "y"}),
		migrationFor("B", 5, []string{"p", "q"}, []string{"x", "y"}),
	}
	capFn, useFn := uniformCapacity(5)
	plan, err := ScheduleMigrations(migrations, capFn, useFn)
	if err != nil {
		t.Fatalf("ScheduleMigrations: %v", err)
	}
	if over := replayCapacityCheck(t, plan, migrations, 5); over > 0 {
		t.Fatalf("plan over-provisioned by %v", over)
	}
	// B's first add must depend on A's deletes (wave gating).
	index := make(map[openflow.MsgID]ScheduledUpdate, len(plan))
	for _, su := range plan {
		index[su.ID] = su
	}
	bFirstAdd := index[openflow.MsgID{Origin: "B/add", Seq: uint64(len(migrations[1].NewPath) - 1)}]
	gated := false
	for _, dep := range bFirstAdd.DependsOn {
		if dep.Origin == "A/del" {
			gated = true
		}
	}
	if !gated {
		t.Fatalf("B's first add not gated on A's deletes: deps=%v", bFirstAdd.DependsOn)
	}
}

func TestMigrationIndependentFlowsOneWave(t *testing.T) {
	// Disjoint links: both flows move in wave 1, nothing gated cross-flow.
	migrations := []Migration{
		migrationFor("A", 2, []string{"a1", "a2"}, []string{"a1", "a3", "a2"}),
		migrationFor("B", 2, []string{"b1", "b2"}, []string{"b1", "b3", "b2"}),
	}
	capFn, useFn := uniformCapacity(10)
	plan, err := ScheduleMigrations(migrations, capFn, useFn)
	if err != nil {
		t.Fatalf("ScheduleMigrations: %v", err)
	}
	for _, su := range plan {
		for _, dep := range su.DependsOn {
			if su.ID.Origin[:1] != dep.Origin[:1] {
				t.Fatalf("independent flows cross-gated: %s depends on %s", su.ID, dep)
			}
		}
	}
}

func TestMigrationDeadlockDetected(t *testing.T) {
	// A and B swap links with no spare capacity anywhere: a true deadlock
	// (Dionysus resolves this by rate-limiting; we report it).
	migrations := []Migration{
		migrationFor("A", 5, []string{"x", "y"}, []string{"p", "q"}),
		migrationFor("B", 5, []string{"p", "q"}, []string{"x", "y"}),
	}
	capFn, useFn := uniformCapacity(5)
	_, err := ScheduleMigrations(migrations, capFn, useFn)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
}

func TestMigrationExternalUsageRespected(t *testing.T) {
	// The target link has 3 units of external traffic: a 3-unit flow fits
	// (3+3 <= 6... capacity 5 -> does NOT fit), so it must wait for
	// nothing and instead deadlock since nothing frees the link.
	migrations := []Migration{
		migrationFor("A", 3, []string{"a", "b"}, []string{"x", "y"}),
	}
	capFn := func(a, b string) float64 { return 5 }
	useFn := func(a, b string) float64 {
		if migLink(a, b) == migLink("x", "y") {
			return 3
		}
		return 0
	}
	_, err := ScheduleMigrations(migrations, capFn, useFn)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock with external usage, got %v", err)
	}
	// With capacity 6 it fits.
	capFn6 := func(a, b string) float64 { return 6 }
	if _, err := ScheduleMigrations(migrations, capFn6, useFn); err != nil {
		t.Fatalf("should fit with capacity 6: %v", err)
	}
}

func TestMigrationChainAcrossThreeWaves(t *testing.T) {
	// C waits for B which waits for A: a dependency chain of waves.
	// A: l1->free link, B: l2->l1, C: l3->l2.
	migrations := []Migration{
		migrationFor("A", 5, []string{"l1a", "l1b"}, []string{"f1", "f2"}),
		migrationFor("B", 5, []string{"l2a", "l2b"}, []string{"l1a", "l1b"}),
		migrationFor("C", 5, []string{"l3a", "l3b"}, []string{"l2a", "l2b"}),
	}
	capFn, useFn := uniformCapacity(5)
	plan, err := ScheduleMigrations(migrations, capFn, useFn)
	if err != nil {
		t.Fatalf("ScheduleMigrations: %v", err)
	}
	if over := replayCapacityCheck(t, plan, migrations, 5); over > 0 {
		t.Fatalf("chain plan over-provisioned by %v", over)
	}
	groups, err := ParallelGroups(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 3 {
		t.Fatalf("expected >= 3 dependency levels for a 3-wave chain, got %d", len(groups))
	}
}

func TestMigrationPlanScalesToManyFlows(t *testing.T) {
	// 30 flows rotating around a ring of 31 links, each full: a long
	// cascade that must schedule without deadlock (one free link).
	const n = 30
	var migrations []Migration
	link := func(i int) []string {
		return []string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1000)}
	}
	for i := 0; i < n; i++ {
		migrations = append(migrations, migrationFor(
			fmt.Sprintf("f%02d", i), 5, link(i), link(i+1)))
	}
	// link(n) is free; flow n-1 moves first, then the cascade unwinds.
	capFn, useFn := uniformCapacity(5)
	plan, err := ScheduleMigrations(migrations, capFn, useFn)
	if err != nil {
		t.Fatalf("ScheduleMigrations: %v", err)
	}
	if over := replayCapacityCheck(t, plan, migrations, 5); over > 0 {
		t.Fatalf("cascade over-provisioned by %v", over)
	}
}

func BenchmarkScheduleMigrations30(b *testing.B) {
	const n = 30
	link := func(i int) []string {
		return []string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1000)}
	}
	var migrations []Migration
	for i := 0; i < n; i++ {
		migrations = append(migrations, migrationFor(
			fmt.Sprintf("f%02d", i), 5, link(i), link(i+1)))
	}
	capFn, useFn := uniformCapacity(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleMigrations(migrations, capFn, useFn); err != nil {
			b.Fatal(err)
		}
	}
}
