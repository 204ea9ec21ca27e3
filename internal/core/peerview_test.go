package core

import (
	"testing"

	"cicero/internal/controlplane"
	"cicero/internal/protocol"
	"cicero/internal/topology"
)

// TestMembershipChangeNotifiesPeerDomains covers the final step of §4.3:
// after a domain's control plane changes, every other domain's view of it
// is updated so forwarded events keep reaching valid recipients.
func TestMembershipChangeNotifiesPeerDomains(t *testing.T) {
	cfg := topology.InterconnectPodsConfig{
		Fabric: topology.DefaultFabricConfig(),
		Pods:   2,
	}
	cfg.Fabric.RacksPerPod = 2
	g, err := topology.BuildInterconnectedPods(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(Config{
		Graph:      g,
		Protocol:   controlplane.ProtoCicero,
		NumDomains: 3,
		DomainOf:   ByPod(2, 2),
		Cost:       protocol.Calibrated(),
		Seed:       71,
	})
	if err != nil {
		t.Fatal(err)
	}
	dom0 := n.Domains[0]
	joiner := addJoiner(t, n, dom0, ControllerName(0, 5))
	if err := dom0.Controllers[0].RequestAddController(joiner.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if joiner.Phase() != 1 {
		t.Fatal("membership change did not complete")
	}
	// Every controller of domains 1 and 2 must now list five members for
	// domain 0, including the joiner.
	for _, dom := range n.Domains[1:] {
		for _, ctl := range dom.Controllers {
			view := ctl.PeerView(0)
			if len(view) != 5 {
				t.Fatalf("%s sees %d members in domain 0, want 5", ctl.ID(), len(view))
			}
			found := false
			for _, m := range view {
				if m == joiner.ID() {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s's view of domain 0 misses the joiner", ctl.ID())
			}
		}
	}
}
