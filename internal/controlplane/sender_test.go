package controlplane

import (
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/routing"
	"cicero/internal/scheduler"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/dkg"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/pki"
)

// A handler learns who sent a message from the fabric, never from the
// message: these tests send the recovery, resync and heartbeat messages from
// nodes that are not who a reply should go to, or not members at all.

// inbox records what one node receives.
type inbox struct{ got []simnet.Message }

func (b *inbox) HandleMessage(_ simnet.NodeID, msg simnet.Message) { b.got = append(b.got, msg) }

// senderFixture is a four-member control plane over the line graph's three
// switches, which record and never acknowledge, plus two recording nodes
// outside the domain. One flow request has been delivered, so every ledger
// holds an event and every dispatch log an update for s3 (the first hop of
// the reverse-path plan; s2 and s1 wait for an ack that never comes).
type senderFixture struct {
	sim   *simnet.Simulator
	net   *simnet.Network
	ctls  []*Controller
	nodes map[simnet.NodeID]*inbox
}

func newSenderFixture(t *testing.T) *senderFixture {
	t.Helper()
	sim := simnet.NewSimulator(1)
	f := &senderFixture{sim: sim, net: simnet.NewNetwork(sim, 200*time.Microsecond), nodes: make(map[simnet.NodeID]*inbox)}
	dir := pki.NewDirectory()
	scheme := bls.NewScheme(pairing.Fast254())
	gk, shares, err := dkg.Run(scheme, rand.Reader, CiceroQuorum(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []simnet.NodeID{"s1", "s2", "s3", "stranger", "victim"} {
		f.nodes[id] = &inbox{}
		f.net.Register(id, f.nodes[id])
	}
	members := []pki.Identity{"c1", "c2", "c3", "c4"}
	for i, id := range members {
		keys, _ := pki.NewKeyPair(rand.Reader, id)
		dir.MustRegister(keys)
		c, err := New(Config{
			ID: id, Members: members, Net: f.net, Keys: keys, Directory: dir,
			Protocol: ProtoCicero, Scheme: scheme, GroupKey: gk, Share: shares[i],
			App: &routing.ShortestPath{Graph: lineGraph(t)}, Sched: scheduler.ReversePath{},
			Switches: []string{"s1", "s2", "s3"}, Bootstrap: i == 0,
			ViewChangeTimeout: 15 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		f.ctls = append(f.ctls, c)
	}
	f.ctls[0].receiveEvent(protocol.Event{
		ID:   openflow.MsgID{Origin: "s1", Seq: 1},
		Kind: protocol.EventFlowRequest,
		Src:  "h1", Dst: "h2",
	})
	f.run(t)
	for _, c := range f.ctls {
		if c.EventsDelivered != 1 || len(c.dispatchLog) != 1 {
			t.Fatalf("%s: delivered %d events, logged %d updates; want 1 and 1", c.ID(), c.EventsDelivered, len(c.dispatchLog))
		}
	}
	return f
}

func (f *senderFixture) run(t *testing.T) {
	t.Helper()
	if _, err := f.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSpoofedRecoverRequestIsNotReflected: a recovery answer carries a
// controller's whole event history. It goes to the member that asked — not
// to a node the request names, and not to a node outside the membership.
func TestSpoofedRecoverRequestIsNotReflected(t *testing.T) {
	f := newSenderFixture(t)
	f.net.Send("stranger", "c1", protocol.MsgRecoverRequest{}, 64)
	f.run(t)
	for id, node := range f.nodes {
		for _, msg := range node.got {
			if _, ok := msg.(protocol.MsgRecoverState); ok {
				t.Fatalf("a non-member's request made c1 send its history to %s", id)
			}
		}
	}
	// c4 asks (its place on the fabric is taken by an inbox, so the answer
	// can be seen): c1 answers c4.
	asker := &inbox{}
	f.net.Register("c4", asker)
	f.net.Send("c4", "c1", protocol.MsgRecoverRequest{}, 64)
	f.run(t)
	if len(asker.got) != 1 {
		t.Fatalf("c4 received %d messages for its request, want c1's answer", len(asker.got))
	}
	if state, ok := asker.got[0].(protocol.MsgRecoverState); !ok || len(state.Events) != 1 {
		t.Fatalf("c4 received %#v, want a recovery state with one event", asker.got[0])
	}
	if n := len(f.nodes["victim"].got) + len(f.nodes["stranger"].got); n != 0 {
		t.Fatalf("%d messages reached nodes that never were members", n)
	}
}

// TestResyncServesOnlyItsSender: a resync makes a controller sign its logged
// updates again. It does that for the switch that asked, when that switch is
// one of its domain's, and for nobody else.
func TestResyncServesOnlyItsSender(t *testing.T) {
	f := newSenderFixture(t)
	ask := func(from simnet.NodeID) {
		for _, c := range f.ctls {
			f.net.Send(from, simnet.NodeID(c.ID()), protocol.MsgResyncRequest{}, 64)
		}
		f.run(t)
	}
	before := len(f.nodes["s3"].got)
	signed := f.ctls[0].UpdatesSigned
	ask("stranger") // not a switch of the domain
	ask("s2")       // one, with nothing logged for it yet
	if got := len(f.nodes["s3"].got) - before; got != 0 {
		t.Fatalf("requests from stranger and s2 sent s3 %d updates", got)
	}
	if n := len(f.nodes["stranger"].got) + len(f.nodes["s2"].got); n != 0 {
		t.Fatalf("stranger and s2 were sent %d messages, want none", n)
	}
	ask("s3")
	resent := f.nodes["s3"].got[before:]
	if len(resent) != len(f.ctls) {
		t.Fatalf("s3's own request got %d updates, want one from each of %d controllers", len(resent), len(f.ctls))
	}
	for _, msg := range resent {
		if up, ok := msg.(protocol.MsgUpdate); !ok || !up.Resend || up.Mods[0].Switch != "s3" {
			t.Fatalf("s3 was resent %#v, want its own update flagged Resend", msg)
		}
	}
	if f.ctls[0].UpdatesSigned != signed {
		t.Fatal("a resync counted as a fresh dispatch")
	}
}

// TestHeartbeatFromStrangerLeavesNoState: the failure detector keeps a
// last-seen time per member and for nobody else, however many distinct
// non-members send it heartbeats.
func TestHeartbeatFromStrangerLeavesNoState(t *testing.T) {
	f := newSenderFixture(t)
	c := f.ctls[0]
	for i := 0; i < 5000; i++ {
		c.HandleMessage(simnet.NodeID(fmt.Sprintf("stranger-%d", i)), protocol.MsgHeartbeat{})
	}
	if len(c.lastSeen) > len(c.members) {
		t.Fatalf("lastSeen holds %d entries for %d members", len(c.lastSeen), len(c.members))
	}
	c.HandleMessage("c2", protocol.MsgHeartbeat{})
	if _, ok := c.lastSeen["c2"]; !ok || len(c.lastSeen) != 1 {
		t.Fatalf("lastSeen = %v, want only the member c2", c.lastSeen)
	}
}
