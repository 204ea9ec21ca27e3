// Package routing contains controller applications: the components that
// translate network events into flow modifications under network policy.
// Cicero is application-agnostic (§5.1); any App can be plugged into the
// controller runtime. The apps here mirror the paper's evaluation setup —
// shortest-path routing with rule reuse — plus policy apps (firewall,
// bandwidth-aware load balancing) used by the Table 1 scenarios.
//
// Every controller replica runs the same App over the same totally-ordered
// event stream, so App implementations MUST be deterministic: identical
// event histories must yield identical mods on every replica.
package routing

import (
	"errors"
	"fmt"

	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/topology"
)

// Errors returned by apps.
var (
	// ErrNoRoute reports an unreachable destination.
	ErrNoRoute = errors.New("routing: no route")
	// ErrUnsupportedEvent reports an event kind the app does not handle.
	ErrUnsupportedEvent = errors.New("routing: unsupported event kind")
)

// Rule priorities: routes install at routePriority, and the firewall's drop
// rules above them at dropPriority.
const (
	routePriority = 10
	dropPriority  = 100
)

// App plans the data-plane changes for an event.
type App interface {
	// PlanFlow returns flow mods in path order (source-side switch first).
	// The update scheduler derives consistency dependencies from this
	// ordering.
	PlanFlow(ev protocol.Event) ([]openflow.FlowMod, error)
}

// ShortestPath is the paper's evaluation application: flows are routed on
// deterministic shortest paths; rules are installed per destination (or
// per flow pair in PairRules mode) and reused by later flows.
type ShortestPath struct {
	Graph *topology.Graph
	// PairRules installs (src, dst)-scoped rules instead of dst-scoped
	// wildcard rules; required by the unamortized setup/teardown mode
	// where each flow's rules are removed at completion.
	PairRules bool
}

var _ App = (*ShortestPath)(nil)

// PlanFlow implements App.
func (a *ShortestPath) PlanFlow(ev protocol.Event) ([]openflow.FlowMod, error) {
	switch ev.Kind {
	case protocol.EventFlowRequest, protocol.EventFlowTeardown:
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedEvent, ev.Kind)
	}
	path := a.Graph.ShortestPath(ev.Src, ev.Dst)
	if path == nil {
		return nil, fmt.Errorf("%w: %s -> %s", ErrNoRoute, ev.Src, ev.Dst)
	}
	op := openflow.FlowAdd
	if ev.Kind == protocol.EventFlowTeardown {
		op = openflow.FlowDelete
	}
	match := openflow.Match{Src: openflow.Wildcard, Dst: ev.Dst}
	if a.PairRules {
		match.Src = ev.Src
	}
	mods := hopMods(a.Graph, path, op, openflow.Rule{Priority: routePriority, Match: match})
	if len(mods) == 0 {
		return nil, nil // same-rack flow: no switch updates needed
	}
	return mods, nil
}

// hopMods returns one mod per switch of path, in path order, each with
// rule forwarding to the node that follows the switch on the path.
func hopMods(g *topology.Graph, path []string, op openflow.FlowModOp, rule openflow.Rule) []openflow.FlowMod {
	mods := make([]openflow.FlowMod, 0, len(path))
	for i, id := range path {
		if n, ok := g.Node(id); !ok || n.Kind == topology.KindHost {
			continue
		}
		r := rule
		r.Action = openflow.Action{Type: openflow.ActionOutput}
		if i+1 < len(path) {
			r.Action.NextHop = path[i+1]
		}
		mods = append(mods, openflow.FlowMod{Op: op, Switch: id, Rule: r})
	}
	return mods
}

// FirewallRule blocks traffic from Src to Dst (either may be a wildcard).
type FirewallRule struct {
	Src string
	Dst string
}

// Firewall wraps another app and enforces block rules: blocked flows get
// a high-priority drop rule at the ingress switch instead of a route, and
// policy-change events install drop rules across the affected switches
// (the Fig. 1 scenario).
type Firewall struct {
	Inner App
	Graph *topology.Graph
	// Blocked lists the firewall policy.
	Blocked []FirewallRule
}

var _ App = (*Firewall)(nil)

// blockedBy returns the firewall rule covering the pair, if any.
func (a *Firewall) blockedBy(src, dst string) (FirewallRule, bool) {
	for _, r := range a.Blocked {
		srcOK := r.Src == openflow.Wildcard || r.Src == src
		dstOK := r.Dst == openflow.Wildcard || r.Dst == dst
		if srcOK && dstOK {
			return r, true
		}
	}
	return FirewallRule{}, false
}

// PlanFlow implements App.
func (a *Firewall) PlanFlow(ev protocol.Event) ([]openflow.FlowMod, error) {
	if ev.Kind == protocol.EventFlowRequest {
		if _, blocked := a.blockedBy(ev.Src, ev.Dst); blocked {
			// Install a drop at the ingress ToR so the flow dies at the
			// edge instead of mid-network.
			path := a.Graph.ShortestPath(ev.Src, ev.Dst)
			switches := a.Graph.SwitchesOnPath(path)
			if len(switches) == 0 {
				return nil, nil
			}
			return []openflow.FlowMod{{
				Op:     openflow.FlowAdd,
				Switch: switches[0],
				Rule: openflow.Rule{
					Priority: dropPriority,
					Match:    openflow.Match{Src: ev.Src, Dst: ev.Dst},
					Action:   openflow.Action{Type: openflow.ActionDrop},
				},
			}}, nil
		}
	}
	return a.Inner.PlanFlow(ev)
}

// LoadBalancer routes flows congestion-consciously: among the shortest
// paths it deterministically spreads destination rules across the pod's
// edge switches, modelling the bandwidth balancing of the Fig. 3 scenario.
// Reservations are derived purely from the (totally ordered) event
// history, keeping replicas in agreement.
type LoadBalancer struct {
	Graph *topology.Graph
	// GbpsPerFlow is the bandwidth reserved per flow.
	GbpsPerFlow float64

	// reserved tracks per-link reservations (replica-local, rebuilt
	// identically everywhere from the ordered event stream).
	reserved map[[2]string]float64
	// assigned remembers each flow pair's placed path so teardown releases
	// exactly what setup reserved.
	assigned map[string][]string
}

var _ App = (*LoadBalancer)(nil)

// PlanFlow implements App.
func (a *LoadBalancer) PlanFlow(ev protocol.Event) ([]openflow.FlowMod, error) {
	switch ev.Kind {
	case protocol.EventFlowRequest, protocol.EventFlowTeardown:
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedEvent, ev.Kind)
	}
	if a.reserved == nil {
		a.reserved = make(map[[2]string]float64)
	}
	if a.assigned == nil {
		a.assigned = make(map[string][]string)
	}
	pairKey := ev.Src + "|" + ev.Dst
	op := openflow.FlowAdd
	delta := a.GbpsPerFlow
	var path []string
	if ev.Kind == protocol.EventFlowTeardown {
		op = openflow.FlowDelete
		delta = -a.GbpsPerFlow
		// Release exactly the path setup placed.
		path = a.assigned[pairKey]
		if path == nil {
			path = a.Graph.ShortestPath(ev.Src, ev.Dst)
		}
		delete(a.assigned, pairKey)
	} else {
		path = a.bestPath(ev.Src, ev.Dst)
		if path != nil {
			a.assigned[pairKey] = path
		}
	}
	if path == nil {
		return nil, fmt.Errorf("%w: %s -> %s", ErrNoRoute, ev.Src, ev.Dst)
	}
	for i := 0; i+1 < len(path); i++ {
		if a.isHostLink(path[i], path[i+1]) {
			continue // host access links are unavoidable; only fabric links balance
		}
		key := linkKey(path[i], path[i+1])
		a.reserved[key] += delta
		if a.reserved[key] < 0 {
			a.reserved[key] = 0
		}
	}
	rule := openflow.Rule{Priority: routePriority, Match: openflow.Match{Src: ev.Src, Dst: ev.Dst}}
	return hopMods(a.Graph, path, op, rule), nil
}

// linkKey canonicalizes an undirected link.
func linkKey(a, b string) [2]string {
	if a < b {
		return [2]string{a, b}
	}
	return [2]string{b, a}
}

// bestPath enumerates candidate paths — the shortest path plus, for every
// switch v, the concatenation of shortest paths src→v→dst — and picks the
// candidate with the lowest maximum fabric-link reservation, breaking ties
// deterministically by path string (replicas must agree).
func (a *LoadBalancer) bestPath(src, dst string) []string {
	base := a.Graph.ShortestPath(src, dst)
	if base == nil {
		return nil
	}
	candidates := [][]string{base}
	for _, v := range a.Graph.Nodes() {
		if v.Kind == topology.KindHost || v.ID == src || v.ID == dst {
			continue
		}
		head := a.Graph.ShortestPath(src, v.ID)
		if head == nil {
			continue
		}
		tail := a.Graph.ShortestPath(v.ID, dst)
		if tail == nil {
			continue
		}
		cand := append(append([]string(nil), head...), tail[1:]...)
		if validSimplePath(cand) {
			candidates = append(candidates, cand)
		}
	}
	best := candidates[0]
	bestCost := a.pathCost(best)
	for _, cand := range candidates[1:] {
		c := a.pathCost(cand)
		switch {
		case c < bestCost:
			best, bestCost = cand, c
		case c == bestCost && len(cand) < len(best):
			best = cand
		case c == bestCost && len(cand) == len(best) && fmt.Sprint(cand) < fmt.Sprint(best):
			best = cand
		}
	}
	return best
}

// pathCost is the maximum fabric-link reservation along the path (lower
// is better); host access links are excluded as unavoidable.
func (a *LoadBalancer) pathCost(path []string) float64 {
	worst := 0.0
	for i := 0; i+1 < len(path); i++ {
		if a.isHostLink(path[i], path[i+1]) {
			continue
		}
		if r := a.reserved[linkKey(path[i], path[i+1])]; r > worst {
			worst = r
		}
	}
	return worst
}

// isHostLink reports whether either end of a link is a host.
func (a *LoadBalancer) isHostLink(x, y string) bool {
	if n, ok := a.Graph.Node(x); ok && n.Kind == topology.KindHost {
		return true
	}
	if n, ok := a.Graph.Node(y); ok && n.Kind == topology.KindHost {
		return true
	}
	return false
}

// validSimplePath rejects paths that visit a node twice.
func validSimplePath(path []string) bool {
	seen := make(map[string]struct{}, len(path))
	for _, n := range path {
		if _, dup := seen[n]; dup {
			return false
		}
		seen[n] = struct{}{}
	}
	return true
}
