package core

import (
	"crypto/rand"
	"testing"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/pki"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

// addJoiner constructs a not-yet-member controller that can be admitted
// through the membership protocol.
func addJoiner(t *testing.T, n *Network, dom *Domain, id pki.Identity) *controlplane.Controller {
	t.Helper()
	joiner, err := n.Join(dom.Index, id)
	if err != nil {
		t.Fatalf("joiner: %v", err)
	}
	return joiner
}

func TestAddControllerResharesAndKeepsPublicKey(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	originalPK := dom.GroupKey.PK.Point

	joiner := addJoiner(t, n, dom, ControllerName(0, 5))
	if err := dom.Controllers[0].RequestAddController(joiner.ID()); err != nil {
		t.Fatalf("RequestAddController: %v", err)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Every controller (including the joiner) lands in phase 1 with five
	// members and an unchanged public key.
	all := append(append([]*controlplane.Controller(nil), dom.Controllers...), joiner)
	for _, ctl := range all {
		if ctl.Phase() != 1 {
			t.Fatalf("%s phase = %d, want 1", ctl.ID(), ctl.Phase())
		}
		if got := len(ctl.Members()); got != 5 {
			t.Fatalf("%s sees %d members, want 5", ctl.ID(), got)
		}
		if !ctl.GroupKey().PK.Point.Equal(originalPK) {
			t.Fatalf("%s group public key changed", ctl.ID())
		}
	}
	// n=5 keeps quorum t = floor(4/3)+1 = 2.
	if q := dom.Controllers[0].Quorum(); q != 2 {
		t.Fatalf("quorum = %d, want 2", q)
	}

	// The enlarged control plane must still install flows end to end with
	// real crypto (new shares, same public key on switches).
	src := topology.HostName(0, 0, 0, 0)
	dst := topology.HostName(0, 0, 2, 0)
	results, err := n.RunFlows([]workload.Flow{{ID: 1, Src: src, Dst: dst, SizeKB: 32, Start: 0}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].SetupDelay == 0 {
		t.Fatalf("post-add flow failed: %+v", results)
	}
	for _, sw := range n.Switches {
		if sw.UpdatesRejected != 0 {
			t.Fatalf("switch %s rejected honest post-reshare updates", sw.ID())
		}
	}
}

// TestJoinerIgnoresForeignStateTransfer: before the bootstrap controller
// admits it, a joiner is sent a state transfer by a node outside the control
// plane it was provisioned with, and one by a member carrying a group key
// under another public key. Either would hand it a membership and a key of
// the sender's choosing; both must be ignored, and the real admission must
// still go through.
func TestJoinerIgnoresForeignStateTransfer(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	originalPK := dom.GroupKey.PK.Point
	joiner := addJoiner(t, n, dom, ControllerName(0, 5))

	const stranger = simnet.NodeID("stranger")
	n.Net.Register(stranger, evilNode{})
	otherKey, _, err := n.Scheme.Deal(rand.Reader, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	hijack := func(gk any) protocol.MsgStateTransfer {
		return protocol.MsgStateTransfer{
			Phase: 6, NewPhase: 7,
			Members:    []pki.Identity{"stranger", "x2", "x3", "x4"},
			NewMembers: []pki.Identity{"stranger", "x2", "x3", "x4", joiner.ID()},
			GroupKey:   gk,
		}
	}
	n.Net.Send(stranger, simnet.NodeID(joiner.ID()), hijack(dom.GroupKey), 4096)
	n.Net.Send(simnet.NodeID(dom.Members[3]), simnet.NodeID(joiner.ID()), hijack(otherKey), 4096)
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if joiner.Phase() != 0 || joiner.Members()[0] != dom.Members[0] || !joiner.GroupKey().PK.Point.Equal(originalPK) {
		t.Fatalf("joiner took state from a foreign transfer: phase=%d members=%v samePK=%v",
			joiner.Phase(), joiner.Members(), joiner.GroupKey().PK.Point.Equal(originalPK))
	}

	if err := dom.Controllers[0].RequestAddController(joiner.ID()); err != nil {
		t.Fatalf("RequestAddController: %v", err)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if joiner.Phase() != 1 || len(joiner.Members()) != 5 || !joiner.GroupKey().PK.Point.Equal(originalPK) {
		t.Fatalf("bootstrap admission did not complete: phase=%d members=%v samePK=%v",
			joiner.Phase(), joiner.Members(), joiner.GroupKey().PK.Point.Equal(originalPK))
	}
}

func TestRemoveControllerReshares(t *testing.T) {
	// Five members so removal keeps n >= 4.
	cfg := topology.DefaultFabricConfig()
	cfg.RacksPerPod = 3
	g, err := topology.BuildSinglePod(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(Config{
		Graph:                g,
		Protocol:             controlplane.ProtoCicero,
		ControllersPerDomain: 5,
		Cost:                 protocol.Calibrated(),
		CryptoReal:           true,
		Seed:                 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	dom := n.Domains[0]
	victim := dom.Members[4]
	n.Net.Crash(simnet.NodeID(victim))
	dom.Controllers[4].Stop()
	if err := dom.Controllers[1].RequestRemoveController(victim); err != nil {
		t.Fatalf("RequestRemoveController: %v", err)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ctl := range dom.Controllers[:4] {
		if ctl.Phase() != 1 {
			t.Fatalf("%s phase = %d, want 1", ctl.ID(), ctl.Phase())
		}
		if got := len(ctl.Members()); got != 4 {
			t.Fatalf("%s sees %d members, want 4", ctl.ID(), got)
		}
	}
	// Flows still complete with the shrunken control plane.
	src := topology.HostName(0, 0, 0, 0)
	dst := topology.HostName(0, 0, 1, 0)
	results, err := n.RunFlows([]workload.Flow{{ID: 1, Src: src, Dst: dst, SizeKB: 32, Start: 0}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].SetupDelay == 0 {
		t.Fatalf("post-remove flow failed: %+v", results)
	}
}

func TestRemoveBelowMinimumRefused(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch) // n = 4
	dom := n.Domains[0]
	if err := dom.Controllers[0].RequestRemoveController(dom.Members[3]); err != nil {
		t.Fatalf("RequestRemoveController: %v", err)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	// The change must be refused: the paper requires n >= 4 at all times.
	for _, ctl := range dom.Controllers {
		if ctl.Phase() != 0 || len(ctl.Members()) != 4 {
			t.Fatalf("%s accepted a change shrinking below 4 members", ctl.ID())
		}
	}
}

func TestFailureDetectorRemovesCrashedController(t *testing.T) {
	cfg := topology.DefaultFabricConfig()
	cfg.RacksPerPod = 2
	g, err := topology.BuildSinglePod(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(Config{
		Graph:                g,
		Protocol:             controlplane.ProtoCicero,
		ControllersPerDomain: 5,
		Cost:                 protocol.Calibrated(),
		Seed:                 33,
		FailureDetector: &controlplane.FailureDetectorConfig{
			Interval: 10 * time.Millisecond,
			Timeout:  35 * time.Millisecond,
			Horizon:  300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dom := n.Domains[0]
	victim := dom.Members[2]
	n.Net.Crash(simnet.NodeID(victim))
	dom.Controllers[2].Stop()
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Surviving members should have detected, agreed on, and executed the
	// removal (phase 1, 4 members).
	for i, ctl := range dom.Controllers {
		if i == 2 {
			continue
		}
		if ctl.Phase() != 1 {
			t.Fatalf("%s phase = %d, want 1 (failure not handled)", ctl.ID(), ctl.Phase())
		}
		members := ctl.Members()
		if len(members) != 4 {
			t.Fatalf("%s sees %d members, want 4", ctl.ID(), len(members))
		}
		for _, m := range members {
			if m == victim {
				t.Fatalf("%s still lists the crashed controller", ctl.ID())
			}
		}
	}
}

func TestAggregatorFailoverAfterRemoval(t *testing.T) {
	// Controller aggregation with the AGGREGATOR removed: the next-lowest
	// member must take over and flows must still complete.
	cfg := topology.DefaultFabricConfig()
	cfg.RacksPerPod = 3
	g, err := topology.BuildSinglePod(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(Config{
		Graph:                g,
		Protocol:             controlplane.ProtoCicero,
		Aggregation:          controlplane.AggController,
		ControllersPerDomain: 5,
		Cost:                 protocol.Calibrated(),
		CryptoReal:           true,
		Seed:                 35,
	})
	if err != nil {
		t.Fatal(err)
	}
	dom := n.Domains[0]
	oldAgg := dom.Members[0]
	n.Net.Crash(simnet.NodeID(oldAgg))
	dom.Controllers[0].Stop()
	if err := dom.Controllers[1].RequestRemoveController(oldAgg); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Switches send their events to the aggregator alone. A table miss at
	// every switch must reach the next member, and no other, once each: a
	// switch still pointing at the crashed aggregator would reach nobody.
	newAgg := 1
	before := make([]uint64, len(dom.Controllers))
	for i, ctl := range dom.Controllers {
		before[i] = ctl.EventsReceived
	}
	for _, sw := range n.Switches {
		sw.PacketArrival(topology.HostName(0, 0, 0, 0), topology.HostName(0, 0, 1, 0))
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ctl := range dom.Controllers {
		if i == 0 {
			continue // crashed
		}
		want := before[i]
		if i == newAgg {
			want += uint64(len(n.Switches))
		}
		if ctl.EventsReceived != want {
			t.Fatalf("%s received %d events after a table miss at each of %d switches, want %d (aggregator %s)",
				ctl.ID(), ctl.EventsReceived-before[i], len(n.Switches), want-before[i], dom.Members[newAgg])
		}
	}
	// The flow below sets up only through the new aggregator.
	src := topology.HostName(0, 0, 0, 0)
	dst := topology.HostName(0, 0, 2, 0)
	results, err := n.RunFlows([]workload.Flow{{ID: 1, Src: src, Dst: dst, SizeKB: 32, Start: 0}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].SetupDelay == 0 {
		t.Fatalf("flow failed after aggregator failover: %+v", results)
	}
}

func TestFlowsDuringMembershipChangeEventuallyComplete(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	joiner := addJoiner(t, n, dom, ControllerName(0, 5))

	// Kick off the add and inject flows around it.
	n.Sim.Schedule(0, func() {
		if err := dom.Controllers[0].RequestAddController(joiner.ID()); err != nil {
			t.Errorf("RequestAddController: %v", err)
		}
	})
	flows := []workload.Flow{
		{ID: 1, Src: topology.HostName(0, 0, 0, 0), Dst: topology.HostName(0, 0, 1, 0), SizeKB: 16, Start: 100 * time.Microsecond},
		{ID: 2, Src: topology.HostName(0, 0, 1, 0), Dst: topology.HostName(0, 0, 2, 0), SizeKB: 16, Start: 2 * time.Millisecond},
		{ID: 3, Src: topology.HostName(0, 0, 2, 0), Dst: topology.HostName(0, 0, 0, 0), SizeKB: 16, Start: 60 * time.Millisecond},
	}
	results, err := n.RunFlows(flows, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("completed %d flows, want 3 (events queued during the change must resume)", len(results))
	}
	if joiner.Phase() != 1 {
		t.Fatalf("joiner never completed the membership change")
	}
}
