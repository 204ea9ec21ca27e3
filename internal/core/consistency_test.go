package core

import (
	"testing"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/routing"
	"cicero/internal/scheduler"
	"cicero/internal/simnet"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

// These tests reproduce the paper's Table 1 scenarios: the transient
// inconsistencies of Figs. 1-3 occur under unordered ("immediate")
// updates and are prevented by Cicero's reverse-path update scheduler.

// diamondGraph is the five-switch topology of Figs. 1-3 with hosts.
func diamondGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	for _, id := range []string{"s1", "s2", "s3", "s4", "s5"} {
		g.AddNode(topology.Node{ID: id, Kind: topology.KindToR})
	}
	for _, id := range []string{"h1", "h2", "h5"} {
		g.AddNode(topology.Node{ID: id, Kind: topology.KindHost})
	}
	links := [][2]string{
		{"s1", "s3"}, {"s2", "s3"}, {"s2", "s5"},
		{"s3", "s4"}, {"s4", "s5"},
		{"h1", "s1"}, {"h2", "s2"}, {"h5", "s5"},
	}
	for _, l := range links {
		if err := g.AddLink(l[0], l[1], 200*time.Microsecond, 5); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// applyOrder drives one flow setup and returns each path switch's rule
// application time.
func applyOrder(t *testing.T, sched scheduler.Scheduler, seed int64) map[string]simnet.Time {
	t.Helper()
	g := diamondGraph(t)
	n, err := Build(Config{
		Graph:     g,
		Protocol:  controlplane.ProtoCicero,
		Scheduler: sched,
		Cost:      protocol.Calibrated(),
		Jitter:    0.8,
		Seed:      seed,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	path := g.ShortestPath("h1", "h5")
	switches := g.SwitchesOnPath(path)
	times := make(map[string]simnet.Time, len(switches))
	for _, sw := range switches {
		sw := sw
		n.Switches[sw].Subscribe("h1", "h5", func(at simnet.Time) { times[sw] = at })
	}
	if _, err := n.RunFlows([]workload.Flow{{ID: 1, Src: "h1", Dst: "h5", SizeKB: 16, Start: 0}}, RunOptions{}); err != nil {
		t.Fatalf("RunFlows: %v", err)
	}
	for _, sw := range switches {
		if _, ok := times[sw]; !ok {
			t.Fatalf("switch %s never applied the rule", sw)
		}
	}
	return times
}

// pathSwitches returns the switch sequence of the h1->h5 route.
func pathSwitches(t *testing.T) []string {
	t.Helper()
	g := diamondGraph(t)
	return g.SwitchesOnPath(g.ShortestPath("h1", "h5"))
}

// TestReversePathNeverBlackHoles (Fig. 2 / Table 1 row 2): under the
// reverse-path scheduler, every switch's rule is applied only after its
// downstream neighbor's, for every seed — no packet can be forwarded
// toward a switch that would drop it.
func TestReversePathNeverBlackHoles(t *testing.T) {
	switches := pathSwitches(t)
	for seed := int64(1); seed <= 10; seed++ {
		times := applyOrder(t, scheduler.ReversePath{}, seed)
		for i := 0; i+1 < len(switches); i++ {
			up, down := switches[i], switches[i+1]
			if times[up] < times[down] {
				t.Fatalf("seed %d: upstream %s applied at %v before downstream %s at %v",
					seed, up, times[up], down, times[down])
			}
		}
	}
}

// TestImmediateSchedulerExhibitsTransientBlackHole is the negative
// control: with unordered updates and link jitter, some seed applies an
// upstream rule before its downstream — the Fig. 2 transient.
func TestImmediateSchedulerExhibitsTransientBlackHole(t *testing.T) {
	switches := pathSwitches(t)
	violated := false
	for seed := int64(1); seed <= 10 && !violated; seed++ {
		times := applyOrder(t, scheduler.Immediate{}, seed)
		for i := 0; i+1 < len(switches); i++ {
			if times[switches[i]] < times[switches[i+1]] {
				violated = true
				break
			}
		}
	}
	if !violated {
		t.Fatal("immediate scheduler never produced an inconsistency window; negative control is broken")
	}
}

// TestFirewallInvariantUnderCicero (Fig. 1 / Table 1 row 1): a firewall
// drop for h1->h5 installs at the ingress before any routing rule lets
// h1's packets through, under every seed. The firewall app emits the
// drop as the only mod, so ordering is trivially safe — the invariant
// checked end to end is that no forwarding rule for the blocked pair ever
// exists anywhere.
func TestFirewallInvariantUnderCicero(t *testing.T) {
	g := diamondGraph(t)
	n, err := Build(Config{
		Graph:    g,
		Protocol: controlplane.ProtoCicero,
		AppFactory: func() routing.App {
			return &routing.Firewall{
				Inner:   &routing.ShortestPath{Graph: g},
				Graph:   g,
				Blocked: []routing.FirewallRule{{Src: "h1", Dst: "h5"}},
			}
		},
		Cost: protocol.Calibrated(),
		Seed: 3,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// The blocked flow must never complete; the allowed flow must.
	flows := []workload.Flow{
		{ID: 1, Src: "h1", Dst: "h5", SizeKB: 16, Start: 0},
		{ID: 2, Src: "h2", Dst: "h5", SizeKB: 16, Start: time.Millisecond},
	}
	results, err := n.RunFlows(flows, RunOptions{})
	if err != nil {
		t.Fatalf("RunFlows: %v", err)
	}
	completedBlocked := false
	completedAllowed := false
	for _, r := range results {
		switch r.Flow.ID {
		case 1:
			completedBlocked = true
		case 2:
			completedAllowed = true
		}
	}
	if completedBlocked {
		t.Fatal("blocked flow completed despite firewall policy")
	}
	if !completedAllowed {
		t.Fatal("allowed flow did not complete")
	}
	// The drop rule must exist at the ingress.
	rule, ok := n.Switches["s1"].Lookup("h1", "h5")
	if !ok || rule.Action.Type != openflow.ActionDrop {
		t.Fatalf("ingress drop rule missing: %v (ok=%v)", rule, ok)
	}
	// And the ingress never forwards the blocked pair.
	if r, ok := n.Switches["s1"].Lookup("h1", "h5"); ok && r.Action.Type != openflow.ActionDrop {
		t.Fatalf("ingress forwards blocked traffic: %v", r)
	}
}

// TestCongestionFreedomWithLoadBalancer (Fig. 3 / Table 1 row 3): moving
// flows with the bandwidth-aware app never reserves more than a link's
// capacity (the app refuses over-provisioned paths when an alternative
// exists).
func TestCongestionFreedomWithLoadBalancer(t *testing.T) {
	g := diamondGraph(t)
	app := &routing.LoadBalancer{Graph: g, GbpsPerFlow: 5}
	// Two concurrent 5 Gbps flows h2 -> h5 on 5 Gbps links: the second
	// must avoid the direct s2-s5 link the first one filled. Each planned
	// output rule puts its flow's 5 Gbps on the link to its next hop.
	load := make(map[[2]string]int)
	for i := uint64(1); i <= 2; i++ {
		mods, err := app.PlanFlow(protocol.Event{
			ID:   pathMsgID(i),
			Kind: protocol.EventFlowRequest,
			Src:  "h2", Dst: "h5",
		})
		if err != nil {
			t.Fatalf("PlanFlow %d: %v", i, err)
		}
		for _, m := range mods {
			link := [2]string{m.Switch, m.Rule.Action.NextHop}
			if link[1] < link[0] {
				link[0], link[1] = link[1], link[0]
			}
			load[link] += 5
		}
	}
	// No fabric link over capacity.
	for _, pair := range [][2]string{{"s2", "s5"}, {"s2", "s3"}, {"s3", "s4"}, {"s4", "s5"}, {"s1", "s3"}} {
		if r := load[pair]; r > 5 {
			t.Fatalf("link %s-%s over-provisioned: %v/5", pair[0], pair[1], r)
		}
	}
}

// pathMsgID builds a distinct event id.
func pathMsgID(seq uint64) openflow.MsgID {
	return openflow.MsgID{Origin: "table1", Seq: seq}
}
