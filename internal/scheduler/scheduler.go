// Package scheduler implements Cicero's update scheduling model (§3.1 of
// the paper): a change to data-plane state is a set of updates
// u = (switch, rule), and an update scheduler assigns each update a
// dependence set D of updates that must be applied (and acknowledged)
// before it. Updates with disjoint dependency closures proceed in
// parallel; dependent updates are released as acknowledgements arrive.
//
// The package provides:
//   - ReversePath: the scheduler the paper evaluates — rules for a flow
//     are installed downstream-to-upstream so no packet can travel a hop
//     whose continuation is not yet programmed (and teardowns are removed
//     upstream-to-downstream, draining before unprogramming).
//   - Immediate: no ordering, the inconsistent baseline used as a
//     negative control for the Table 1 scenarios.
//   - Planned: synthesized dependency graphs replayed per event, with
//     ReversePath for events that have none.
//   - Engine: the runtime dependency tracker each controller runs,
//     releasing updates as acks arrive.
package scheduler

import (
	"errors"

	"cicero/internal/openflow"
)

// Update is one rule change destined for one switch, with the globally
// unique id used for signing, acking, and dependency tracking.
type Update struct {
	ID  openflow.MsgID
	Mod openflow.FlowMod
}

// ScheduledUpdate is an update plus the ids that must be acknowledged
// before it may be sent.
type ScheduledUpdate struct {
	Update
	DependsOn []openflow.MsgID
}

// Plan is a dependency-ordered set of updates for one event.
type Plan []ScheduledUpdate

// Scheduler assigns dependencies to a path-ordered list of updates.
// Updates must be given in flow-path order (source-side first); the id of
// each produced update is updates[i].ID.
type Scheduler interface {
	// Schedule returns the dependency plan for the given updates.
	Schedule(updates []Update) Plan
}

// ReversePath is the paper's evaluated scheduler (§5.1): for rule
// installation along a path s1 → s2 → s3, the update to s3 must complete
// before s2's, and s2's before s1's. Deletions order the other way
// (upstream first), so in-flight packets drain before downstream rules
// disappear.
type ReversePath struct{}

var _ Scheduler = ReversePath{}

// Schedule implements Scheduler. Additions and deletions are chained
// independently so mixed plans (route replacement: install the new path,
// then retire the old one) stay acyclic:
//
//   - additions chain downstream-to-upstream among themselves: an add
//     depends on the next add in path order;
//   - deletions chain upstream-to-downstream among themselves, and the
//     first deletion additionally depends on the first (ingress) addition
//     — once the ingress forwards onto the new path, the old path only
//     drains, so removing it is safe.
func (ReversePath) Schedule(updates []Update) Plan {
	plan := make(Plan, len(updates))
	var addIdx, delIdx []int
	for i, u := range updates {
		if u.Mod.Op == openflow.FlowDelete {
			delIdx = append(delIdx, i)
		} else {
			addIdx = append(addIdx, i)
		}
		plan[i] = ScheduledUpdate{Update: u}
	}
	for k, i := range addIdx {
		if k+1 < len(addIdx) {
			plan[i].DependsOn = []openflow.MsgID{updates[addIdx[k+1]].ID}
		}
	}
	for k, i := range delIdx {
		switch {
		case k > 0:
			plan[i].DependsOn = []openflow.MsgID{updates[delIdx[k-1]].ID}
		case len(addIdx) > 0:
			plan[i].DependsOn = []openflow.MsgID{updates[addIdx[0]].ID}
		}
	}
	return plan
}

// Immediate applies all updates at once with no ordering. It reproduces
// the transient inconsistencies of Table 1 and exists as a negative
// control; production configurations must not use it.
type Immediate struct{}

var _ Scheduler = Immediate{}

// Schedule implements Scheduler.
func (Immediate) Schedule(updates []Update) Plan {
	plan := make(Plan, len(updates))
	for i, u := range updates {
		plan[i] = ScheduledUpdate{Update: u}
	}
	return plan
}

// Planned replays externally synthesized dependency graphs (the update
// synthesis engine's output): each event's plan is registered under the
// update origin the control plane will assign its updates, as a
// positional dependency list aligned with the update order the planning
// app emits. Origins without a registered graph get ReversePath, so a
// Planned scheduler can serve a mixed workload.
type Planned struct {
	// ByOrigin maps an update origin ("<event-id>/d<domain>") to the
	// positional dependency lists for that event's updates.
	ByOrigin map[string][][]int
}

var _ Scheduler = Planned{}

// Schedule implements Scheduler. A position out of range, or an update's
// own, is not a dependency.
func (p Planned) Schedule(updates []Update) Plan {
	if len(updates) == 0 {
		return ReversePath{}.Schedule(updates)
	}
	deps, ok := p.ByOrigin[updates[0].ID.Origin]
	if !ok {
		return ReversePath{}.Schedule(updates)
	}
	plan := make(Plan, len(updates))
	for i, u := range updates {
		plan[i] = ScheduledUpdate{Update: u}
		if i >= len(deps) {
			continue
		}
		for _, j := range deps[i] {
			if j >= 0 && j < len(updates) && j != i {
				plan[i].DependsOn = append(plan[i].DependsOn, updates[j].ID)
			}
		}
	}
	return plan
}

// Errors returned by the package.
var (
	// ErrCycle reports a dependency cycle in a plan.
	ErrCycle = errors.New("scheduler: dependency cycle")
	// ErrUnknownDependency reports a dependency on an id outside the plan.
	ErrUnknownDependency = errors.New("scheduler: dependency on unknown update")
	// ErrDuplicateUpdate reports two plan entries with the same id.
	ErrDuplicateUpdate = errors.New("scheduler: duplicate update id")
)
