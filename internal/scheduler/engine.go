package scheduler

import (
	"fmt"
	"slices"

	"cicero/internal/openflow"
)

// Engine is the runtime dependency tracker a controller runs (Fig. 7b of
// the paper): updates whose dependency sets are empty are released
// immediately; as acknowledgements arrive, satisfied dependents are
// released. Updates belonging to different plans (different events) are
// tracked independently and hence proceed in parallel.
//
// A dependency is satisfied only when it is both acknowledged by its
// switch and locally released. The distinction matters on live backends:
// a switch applies an update once a quorum of the other controllers'
// shares arrives, so a lagging controller can receive the ack for a
// dependency it has not dispatched yet. Releasing the dependent at that
// instant would be safe (the switch has applied the dependency) but would
// make the release order — and therefore the audit ledger — depend on ack
// arrival timing; deferring until the dependency is also locally released
// keeps every controller's release order a topological order of the plan
// on every backend.
//
// Only the switch an update is addressed to can acknowledge it. Anyone else's
// ack — a Byzantine controller's, say — would release the dependents of an
// update its switch has not applied, which is the per-update consistency the
// ordering exists for.
//
// Engine is not concurrency-safe; each controller owns one engine driven
// from its serial execution context.
type Engine struct {
	// release is invoked for every update the moment it becomes ready.
	release func(ScheduledUpdate)

	waiting    map[openflow.MsgID]*engineEntry
	dependents map[openflow.MsgID][]openflow.MsgID
	// released maps each update dispatched but not yet acknowledged to the
	// switch it was sent to.
	released map[openflow.MsgID]string
	// acked holds the updates acknowledged by their own switch.
	acked map[openflow.MsgID]bool
	// early holds, per update no plan has named yet, the switches that
	// acknowledged it; Add keeps the ack only if the plan addresses the
	// update to one of them.
	early map[openflow.MsgID][]string
}

// engineEntry is an update still blocked on dependencies.
type engineEntry struct {
	update  ScheduledUpdate
	missing map[openflow.MsgID]struct{}
}

// NewEngine creates an engine that calls release for each ready update.
func NewEngine(release func(ScheduledUpdate)) *Engine {
	return &Engine{
		release:    release,
		waiting:    make(map[openflow.MsgID]*engineEntry),
		dependents: make(map[openflow.MsgID][]openflow.MsgID),
		released:   make(map[openflow.MsgID]string),
		acked:      make(map[openflow.MsgID]bool),
		early:      make(map[openflow.MsgID][]string),
	}
}

// Add registers a plan. Ready updates are released before Add returns —
// in topological order of the plan, so the release sequence is canonical
// even when acks have already arrived for some of the plan (on live
// backends a switch can apply an update via the other controllers' quorum
// before this controller delivers the triggering event). Such pre-acked
// updates — acknowledged by the switch the plan addresses them to, not by
// anyone else — are still released (the decision must reach the audit
// ledger on every replica) and count as immediately satisfied. The rest
// wait for Ack calls. Dependencies may reference updates inside the plan or
// updates of an earlier plan already acknowledged; anything else is
// ErrUnknownDependency.
func (e *Engine) Add(plan Plan) error {
	order, err := e.validate(plan)
	if err != nil {
		return err
	}
	// The plan says which switch each update is addressed to: of the acks
	// that arrived ahead of it, only that switch's counts.
	for _, su := range plan {
		if slices.Contains(e.early[su.ID], su.Mod.Switch) {
			e.acked[su.ID] = true
		}
		delete(e.early, su.ID)
	}
	for _, idx := range order {
		su := plan[idx]
		missing := make(map[openflow.MsgID]struct{})
		for _, dep := range su.DependsOn {
			if !e.satisfied(dep) {
				missing[dep] = struct{}{}
				e.dependents[dep] = append(e.dependents[dep], su.ID)
			}
		}
		if len(missing) == 0 {
			e.dispatch(su)
			continue
		}
		e.waiting[su.ID] = &engineEntry{update: su, missing: missing}
	}
	return nil
}

// satisfied reports whether a dependency is acknowledged and no longer
// tracked locally (released, or never part of a local plan).
func (e *Engine) satisfied(dep openflow.MsgID) bool {
	if _, waiting := e.waiting[dep]; waiting {
		return false
	}
	return e.acked[dep]
}

// dispatch releases one ready update. A pre-acked update (the switch
// already applied it via the other controllers' quorum) is satisfied the
// moment it is released, cascading to its dependents; anything else
// becomes in-flight until its ack arrives.
func (e *Engine) dispatch(su ScheduledUpdate) {
	e.release(su)
	if e.acked[su.ID] {
		e.satisfy(su.ID)
		return
	}
	e.released[su.ID] = su.Mod.Switch
}

// validate checks that a plan is a DAG over its own updates and the acked
// ones (ErrDuplicateUpdate, ErrUnknownDependency, ErrCycle), returning a
// topological order of the plan (indices into it, plan order as the
// tie-break). An id that is blocked or in flight locally is a duplicate; an
// id that is merely acked is NOT — on live backends the switch can apply an
// update through the other controllers' quorum before this controller plans
// it, and the plan must still be accepted so the decision reaches the local
// ledger. Already-acked out-of-plan dependencies are considered satisfied.
func (e *Engine) validate(plan Plan) ([]int, error) {
	index := make(map[openflow.MsgID]int, len(plan))
	for i, su := range plan {
		if _, dup := index[su.ID]; dup {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateUpdate, su.ID)
		}
		_, blocked := e.waiting[su.ID]
		if _, inFlight := e.released[su.ID]; blocked || inFlight {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateUpdate, su.ID)
		}
		index[su.ID] = i
	}
	indeg := make([]int, len(plan))
	dependents := make([][]int, len(plan))
	for i, su := range plan {
		for _, dep := range su.DependsOn {
			j, inPlan := index[dep]
			if !inPlan {
				if e.acked[dep] {
					continue // satisfied externally
				}
				return nil, fmt.Errorf("%w: %s depends on %s", ErrUnknownDependency, su.ID, dep)
			}
			indeg[i]++
			dependents[j] = append(dependents[j], i)
		}
	}
	var queue []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, len(plan))
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, j := range dependents[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(order) != len(plan) {
		return nil, ErrCycle
	}
	return order, nil
}

// Ack records that sw — the authenticated sender of the ack — reports the
// update applied, releasing any updates whose dependencies are now all
// satisfied. It reports whether the update is thereby acknowledged: false
// for a duplicate, for an ack from any switch but the update's own (which
// changes nothing), and for an ack ahead of its plan (undecided until Add).
// An ack for an update this controller has not released yet (quorum formed
// from the other controllers' shares) is remembered; its dependents release
// once the update itself is released.
func (e *Engine) Ack(id openflow.MsgID, sw string) bool {
	if e.acked[id] {
		return false
	}
	if to, inFlight := e.released[id]; inFlight {
		if to != sw {
			return false
		}
		e.acked[id] = true
		delete(e.released, id)
		e.satisfy(id)
		return true
	}
	if entry, blocked := e.waiting[id]; blocked {
		// Satisfied by dispatch when the update's own release fires.
		if entry.update.Mod.Switch != sw {
			return false
		}
		e.acked[id] = true
		return true
	}
	// Not planned yet: whether sw is the update's switch is decided when the
	// plan arrives.
	if !slices.Contains(e.early[id], sw) {
		e.early[id] = append(e.early[id], sw)
	}
	return false
}

// satisfy propagates a dependency that is now both acked and locally
// released, cascading through pre-acked dependents.
func (e *Engine) satisfy(id openflow.MsgID) {
	for _, depID := range e.dependents[id] {
		entry, ok := e.waiting[depID]
		if !ok {
			continue
		}
		delete(entry.missing, id)
		if len(entry.missing) == 0 {
			delete(e.waiting, depID)
			e.dispatch(entry.update)
		}
	}
	delete(e.dependents, id)
}

// Acked reports whether the update's own switch has acknowledged it. A
// controller asks before it signs a released update: a switch that applied
// the update on the other controllers' shares drops any later one unread.
func (e *Engine) Acked(id openflow.MsgID) bool { return e.acked[id] }

// Unacked returns how many updates were released to their switches and
// not acknowledged yet.
func (e *Engine) Unacked() int { return len(e.released) }
