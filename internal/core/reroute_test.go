package core

import (
	"slices"
	"testing"
	"time"

	"cicero/internal/audit"
	"cicero/internal/controlplane"
	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/routing"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

// End-to-end reproduction of the paper's Fig. 2: a link fails, the
// control plane reroutes around it, and the update ordering never creates
// a loop or black hole — the new path is fully programmed before the old
// one is retired.

func TestLinkFailureReroutesWithoutBlackHole(t *testing.T) {
	g := diamondGraph(t)
	var apps []*routing.Rerouter
	n, err := Build(Config{
		Graph:    g,
		Protocol: controlplane.ProtoCicero,
		AppFactory: func() routing.App {
			app := &routing.Rerouter{Inner: &routing.ShortestPath{Graph: g}, Graph: g}
			apps = append(apps, app)
			return app
		},
		Cost: protocol.Calibrated(),
		Seed: 51,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Establish h2 -> h5 over the direct s2-s5 link.
	results, err := n.RunFlows([]workload.Flow{{ID: 1, Src: "h2", Dst: "h5", SizeKB: 16}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatal("initial flow failed")
	}
	if rule, ok := n.Switches["s2"].Lookup("h2", "h5"); !ok || rule.Action.NextHop != "s5" {
		t.Fatalf("expected s2 -> s5 direct route, got %v (ok=%v)", rule, ok)
	}

	// The s2-s5 link fails; s2 reports it to the control plane.
	failLink(t, n, "s2", "s5")

	// s2 must now forward toward s3 (the detour), and every switch on the
	// new path must carry the rule — no black hole.
	rule, ok := n.Switches["s2"].Lookup("h2", "h5")
	if !ok {
		t.Fatal("ingress lost its route after link failure")
	}
	if rule.Action.NextHop == "s5" {
		t.Fatalf("ingress still forwards into the dead link: %v", rule)
	}
	// Follow next-hops from s2 to h5 and assert loop-freedom.
	visited := map[string]bool{}
	cur := "s2"
	for cur != "h5" {
		if visited[cur] {
			t.Fatalf("forwarding loop at %s", cur)
		}
		visited[cur] = true
		sw, ok := n.Switches[cur]
		if !ok {
			t.Fatalf("path reached unknown switch %s", cur)
		}
		r, ok := sw.Lookup("h2", "h5")
		if !ok {
			t.Fatalf("black hole at %s: no rule for h2->h5", cur)
		}
		cur = r.Action.NextHop
	}
	// A new flow to the same destination reuses the repaired route.
	results, err = n.RunFlows([]workload.Flow{{ID: 2, Src: "h2", Dst: "h5", SizeKB: 16, Start: n.Sim.Now() + time.Millisecond}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].RuleReused {
		t.Fatalf("post-failure flow did not reuse the repaired route: %+v", results)
	}
}

func TestLinkFailureUnreachableDestinationRetiresRoute(t *testing.T) {
	// A topology where a failure disconnects the destination entirely:
	// h1 - s1 - s2 - h2 with a single path.
	g := topology.NewGraph()
	for _, id := range []string{"s1", "s2"} {
		g.AddNode(topology.Node{ID: id, Kind: topology.KindToR})
	}
	g.AddNode(topology.Node{ID: "h1", Kind: topology.KindHost})
	g.AddNode(topology.Node{ID: "h2", Kind: topology.KindHost})
	for _, l := range [][2]string{{"h1", "s1"}, {"s1", "s2"}, {"s2", "h2"}} {
		if err := g.AddLink(l[0], l[1], 100*time.Microsecond, 5); err != nil {
			t.Fatal(err)
		}
	}
	n, err := Build(Config{
		Graph:    g,
		Protocol: controlplane.ProtoCicero,
		AppFactory: func() routing.App {
			return &routing.Rerouter{Inner: &routing.ShortestPath{Graph: g}, Graph: g}
		},
		Cost: protocol.Calibrated(),
		Seed: 53,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RunFlows([]workload.Flow{{ID: 1, Src: "h1", Dst: "h2", SizeKB: 8}}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Switches["s1"].Lookup("h1", "h2"); !ok {
		t.Fatal("route not installed")
	}
	failLink(t, n, "s1", "s2")
	// The stale rule must be gone: forwarding into a dead link is the
	// Fig. 2 failure mode.
	if r, ok := n.Switches["s1"].Lookup("h1", "h2"); ok {
		t.Fatalf("stale route to unreachable destination survives: %v", r)
	}
}

// TestRerouteOrderingNeverBlackHolesDuringTransition watches every rule
// application during the reroute and asserts the invariant across seeds:
// at the moment the ingress switches to the new path, every downstream
// switch of the new path already has its rule.
func TestRerouteOrderingNeverBlackHolesDuringTransition(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := diamondGraph(t)
		n, err := Build(Config{
			Graph:    g,
			Protocol: controlplane.ProtoCicero,
			AppFactory: func() routing.App {
				return &routing.Rerouter{Inner: &routing.ShortestPath{Graph: g}, Graph: g}
			},
			Cost:   protocol.Calibrated(),
			Jitter: 0.8,
			Seed:   seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.RunFlows([]workload.Flow{{ID: 1, Src: "h2", Dst: "h5", SizeKB: 8}}, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		// Sample the data plane at 20µs resolution: from the moment the
		// ingress adopts a next hop other than the dead link, the entire
		// replacement path must already be programmed.
		checked := false
		ingress := n.Switches["s2"]
		for probe := time.Duration(0); probe < 60*time.Millisecond; probe += 20 * time.Microsecond {
			n.Sim.At(n.Sim.Now()+probe, func() {
				r, ok := ingress.Lookup("h2", "h5")
				if !ok || r.Action.NextHop == "s5" {
					return // not yet rerouted (pre-repair window)
				}
				checked = true
				cur := r.Action.NextHop
				for cur != "h5" {
					sw, ok := n.Switches[cur]
					if !ok {
						t.Fatalf("seed %d: unknown hop %s", seed, cur)
					}
					rr, ok := sw.Lookup("h2", "h5")
					if !ok {
						t.Fatalf("seed %d: black hole at %s while ingress already rerouted", seed, cur)
					}
					cur = rr.Action.NextHop
				}
			})
		}
		failLink(t, n, "s2", "s5")
		if !checked {
			t.Fatalf("seed %d: ingress never adopted the replacement route", seed)
		}
	}
}

// failLink has switch sw report its link to peer down, sealed under its
// own identity like any switch event (origin "<sw>/linkdown"), runs the
// simulator, and checks that every controller of the domain has the event
// in its ledger: it was ordered, not handed to one controller.
func failLink(t *testing.T, n *Network, sw, peer string) {
	t.Helper()
	ev := protocol.Event{
		ID:   openflow.MsgID{Origin: sw + "/linkdown", Seq: 1},
		Kind: protocol.EventLinkDown,
		Src:  sw,
		Dst:  peer,
	}
	if err := n.On(fabric.NodeID(sw), func() { n.Switches[sw].EmitEvent(ev) }); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	ledgers, err := n.Ledgers(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ledger := range ledgers {
		if !slices.ContainsFunc(ledger, func(r audit.Record) bool {
			return r.Kind == audit.KindEvent && r.Subject == ev.ID.String()
		}) {
			t.Fatalf("%s: link-down event %s is not in its ledger", n.Domains[0].Controllers[i].ID(), ev.ID)
		}
	}
}
