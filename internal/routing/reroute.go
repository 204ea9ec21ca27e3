package routing

import (
	"sort"

	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/topology"
)

// Rerouter wraps a routing app and handles network hardware failures (the
// paper's Fig. 2 scenario): it remembers every destination route it has
// installed, and on an EventLinkDown it removes the failed link from the
// topology and emits loop-free route replacements — new paths installed
// downstream-first, old rules on abandoned switches removed only after
// the ingress forwards onto the new path (the mixed-plan semantics of the
// reverse-path scheduler).
//
// Like every controller application, Rerouter is deterministic: replicas
// processing the same totally-ordered event stream track identical route
// tables and produce identical replacement mods.
//
// Its PlanFlow removes the failed link from the Graph it shares with the
// other replicas, which is sound only where one goroutine runs every
// controller: the simulator, where its tests run it. On a live backend a
// graph must stay read-only (topology.Graph).
type Rerouter struct {
	Inner *ShortestPath
	Graph *topology.Graph

	// routes remembers the installed path per destination.
	routes map[string][]string
}

var _ App = (*Rerouter)(nil)

// PlanFlow implements App.
func (a *Rerouter) PlanFlow(ev protocol.Event) ([]openflow.FlowMod, error) {
	if a.routes == nil {
		a.routes = make(map[string][]string)
	}
	switch ev.Kind {
	case protocol.EventLinkDown:
		return a.handleLinkDown(ev)
	case protocol.EventFlowRequest:
		mods, err := a.Inner.PlanFlow(ev)
		if err == nil && len(mods) > 0 {
			if path := a.Graph.ShortestPath(ev.Src, ev.Dst); path != nil {
				a.routes[ev.Dst] = path
			}
		}
		return mods, err
	case protocol.EventFlowTeardown:
		delete(a.routes, ev.Dst)
		return a.Inner.PlanFlow(ev)
	default:
		return a.Inner.PlanFlow(ev)
	}
}

// handleLinkDown severs the link and replaces every route that used it.
func (a *Rerouter) handleLinkDown(ev protocol.Event) ([]openflow.FlowMod, error) {
	// RemoveLink is idempotent: each replica applies it once per event
	// (delivery dedup), and the shared graph tolerates repeats.
	a.Graph.RemoveLink(ev.Src, ev.Dst)

	// Deterministic iteration over affected destinations.
	dsts := make([]string, 0, len(a.routes))
	for dst := range a.routes {
		dsts = append(dsts, dst)
	}
	sort.Strings(dsts)

	var mods []openflow.FlowMod
	for _, dst := range dsts {
		old := a.routes[dst]
		if !pathUsesLink(old, ev.Src, ev.Dst) {
			continue
		}
		src := old[0]
		replacement := a.Graph.ShortestPath(src, dst)
		if replacement == nil {
			// Destination unreachable: retire the dead route entirely.
			for _, sw := range a.Graph.SwitchesOnPath(old) {
				mods = append(mods, a.deleteMod(sw, dst))
			}
			delete(a.routes, dst)
			continue
		}
		// New path first (adds, installed downstream-first by the
		// scheduler), then removals on switches the new path abandons.
		adds := hopMods(a.Graph, replacement, openflow.FlowAdd, openflow.Rule{Priority: routePriority, Match: a.match(dst)})
		onNew := make(map[string]bool, len(adds))
		for _, m := range adds {
			onNew[m.Switch] = true
		}
		mods = append(mods, adds...)
		for _, sw := range a.Graph.SwitchesOnPath(old) {
			if !onNew[sw] {
				mods = append(mods, a.deleteMod(sw, dst))
			}
		}
		a.routes[dst] = replacement
	}
	if len(mods) == 0 {
		return nil, nil
	}
	return mods, nil
}

// match mirrors the inner app's match scoping.
func (a *Rerouter) match(dst string) openflow.Match {
	return openflow.Match{Src: openflow.Wildcard, Dst: dst}
}

// deleteMod removes dst's rule on sw.
func (a *Rerouter) deleteMod(sw, dst string) openflow.FlowMod {
	return openflow.FlowMod{
		Op:     openflow.FlowDelete,
		Switch: sw,
		Rule:   openflow.Rule{Match: a.match(dst)},
	}
}

// pathUsesLink reports whether the path crosses the undirected link a-b.
func pathUsesLink(path []string, a, b string) bool {
	for i := 0; i+1 < len(path); i++ {
		if (path[i] == a && path[i+1] == b) || (path[i] == b && path[i+1] == a) {
			return true
		}
	}
	return false
}
