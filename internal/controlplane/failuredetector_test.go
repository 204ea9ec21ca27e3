package controlplane

import (
	"crypto/rand"
	"testing"
	"time"

	"cicero/internal/protocol"
	"cicero/internal/routing"
	"cicero/internal/scheduler"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/dkg"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/pki"
)

// fdSwitch is a stub switch that records configuration pushes (and acks
// updates so plans complete), for observing membership-change fallout.
type fdSwitch struct {
	id      string
	net     *simnet.Network
	link    *pki.Link
	members []pki.Identity
	configs []protocol.MsgConfig
}

func (s *fdSwitch) HandleMessage(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case protocol.MsgConfig:
		s.configs = append(s.configs, m)
	case protocol.MsgUpdate:
		sendAcks(s.net, s.link, s.id, s.members, m.UpdateID)
	}
}

// fdCluster builds n Cicero controllers with an active failure detector
// and one stub switch, all on a fresh simulator.
type fdCluster struct {
	sim     *simnet.Simulator
	net     *simnet.Network
	members []pki.Identity
	ctls    []*Controller
	sw      *fdSwitch
}

func buildFDCluster(t *testing.T, n int, fd *FailureDetectorConfig) *fdCluster {
	t.Helper()
	sim := simnet.NewSimulator(1)
	net := simnet.NewNetwork(sim, 200*time.Microsecond)
	dir := pki.NewDirectory()
	g := lineGraph(t)
	scheme := bls.NewScheme(pairing.Fast254())
	quorum := CiceroQuorum(n)
	gk, shares, err := dkg.Run(scheme, rand.Reader, quorum, n)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]pki.Identity, n)
	for i := range members {
		members[i] = pki.Identity(string(rune('a'+i)) + "-ctl")
	}
	swKeys, _ := pki.NewKeyPair(rand.Reader, "s1")
	dir.MustRegister(swKeys)
	sw := &fdSwitch{id: "s1", net: net, link: pki.NewLink(swKeys, dir), members: members}
	net.Register("s1", sw)

	cl := &fdCluster{sim: sim, net: net, members: members, sw: sw}
	for i, id := range members {
		keys, _ := pki.NewKeyPair(rand.Reader, id)
		dir.MustRegister(keys)
		c, err := New(Config{
			ID: id, Members: members, Net: net, Keys: keys, Directory: dir,
			Protocol: ProtoCicero, Scheme: scheme, GroupKey: gk, Share: shares[i],
			App: &routing.ShortestPath{Graph: g}, Sched: scheduler.ReversePath{},
			Switches: []string{"s1"}, Bootstrap: i == 0,
			ViewChangeTimeout: 15 * time.Millisecond,
			FailureDetector:   fd,
		})
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		cl.ctls = append(cl.ctls, c)
	}
	return cl
}

func testFD() *FailureDetectorConfig {
	return &FailureDetectorConfig{
		Interval: 5 * time.Millisecond,
		Timeout:  20 * time.Millisecond,
		Horizon:  250 * time.Millisecond,
	}
}

// TestFailureDetectorRemovesPartitionedMember: a member partitioned from
// everyone is suspected, removed through consensus, and the survivors push
// a fresh configuration to the switches — while the isolated member alone
// cannot shrink the membership (no split brain).
func TestFailureDetectorRemovesPartitionedMember(t *testing.T) {
	cl := buildFDCluster(t, 5, testFD())
	victim := cl.members[4]
	var rest []simnet.NodeID
	for _, m := range cl.members[:4] {
		rest = append(rest, simnet.NodeID(m))
	}
	cl.net.PartitionSet([]simnet.NodeID{simnet.NodeID(victim)}, append(rest, "s1"))

	// Partitioned-but-alive members retry forever; drive with a deadline.
	if _, err := cl.sim.RunUntil(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	for _, c := range cl.ctls[:4] {
		members := c.Members()
		if len(members) != 4 {
			t.Fatalf("%s still has %d members after removal: %v", c.ID(), len(members), members)
		}
		for _, m := range members {
			if m == victim {
				t.Fatalf("%s still lists the removed member %s", c.ID(), victim)
			}
		}
		if c.Phase() == 0 {
			t.Errorf("%s never advanced its membership phase", c.ID())
		}
	}
	// The isolated member cannot commit removals alone: it must still be
	// in phase 0 with the original 5-member view.
	if got := len(cl.ctls[4].Members()); got != 5 {
		t.Errorf("isolated member shrank its own membership to %d (split brain)", got)
	}
	if cl.ctls[4].Phase() != 0 {
		t.Errorf("isolated member advanced to phase %d alone", cl.ctls[4].Phase())
	}
	// Survivors pushed the new configuration to the data plane.
	found := false
	for _, cfg := range cl.sw.configs {
		if len(cfg.Members) == 4 && cfg.Phase > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("switch never received a 4-member configuration (got %d pushes)", len(cl.sw.configs))
	}
}

// TestFailureDetectorToleratesRecovery: a partition shorter than the
// timeout must not cost the member its seat.
func TestFailureDetectorToleratesRecovery(t *testing.T) {
	cl := buildFDCluster(t, 5, testFD())
	victim := simnet.NodeID(cl.members[4])
	var rest []simnet.NodeID
	for _, m := range cl.members[:4] {
		rest = append(rest, simnet.NodeID(m))
	}
	// Sever for less than the 20ms timeout, starting after the first
	// heartbeat round has seeded lastSeen.
	cl.sim.Schedule(10*time.Millisecond, func() {
		cl.net.PartitionSet([]simnet.NodeID{victim}, rest)
	})
	cl.sim.Schedule(24*time.Millisecond, func() {
		cl.net.HealSet([]simnet.NodeID{victim}, rest)
	})
	if _, err := cl.sim.RunUntil(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, c := range cl.ctls {
		if got := len(c.Members()); got != 5 {
			t.Fatalf("%s has %d members after a sub-timeout partition", c.ID(), got)
		}
		if c.Phase() != 0 {
			t.Fatalf("%s reshared (phase %d) despite timely recovery", c.ID(), c.Phase())
		}
	}
}

// TestHeartbeatKeepsHealthyMembership: with no faults the detector must
// never remove anyone.
func TestHeartbeatKeepsHealthyMembership(t *testing.T) {
	cl := buildFDCluster(t, 4, testFD())
	if _, err := cl.sim.RunUntil(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, c := range cl.ctls {
		if got := len(c.Members()); got != 4 {
			t.Fatalf("%s lost members without any fault: %d", c.ID(), got)
		}
		if c.Phase() != 0 {
			t.Fatalf("%s reshared without any fault", c.ID())
		}
	}
}

// TestFailureDetectorAsymmetricPartition: a member whose outbound links
// are severed (it hears everything, says nothing) is indistinguishable
// from a crashed member to the rest of the cluster, so the survivors must
// remove it — the one-way partition case the two-way tests cannot cover.
func TestFailureDetectorAsymmetricPartition(t *testing.T) {
	cl := buildFDCluster(t, 5, testFD())
	victim := simnet.NodeID(cl.members[4])
	for _, m := range cl.members[:4] {
		cl.net.PartitionOneWay(victim, simnet.NodeID(m))
	}
	cl.net.PartitionOneWay(victim, "s1")
	if _, err := cl.sim.RunUntil(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, c := range cl.ctls[:4] {
		members := c.Members()
		if len(members) != 4 {
			t.Fatalf("%s kept the mute member: %v", c.ID(), members)
		}
		for _, m := range members {
			if simnet.NodeID(m) == victim {
				t.Fatalf("%s still lists the mute member %s", c.ID(), victim)
			}
		}
	}
	// The mute member cannot commit anything on its own: whatever view of
	// the removal it observed, it must not have removed anyone *else*.
	for _, m := range cl.members[:4] {
		found := false
		for _, got := range cl.ctls[4].Members() {
			if got == m {
				found = true
			}
		}
		if !found {
			t.Fatalf("mute member unilaterally dropped %s from its view", m)
		}
	}
}
