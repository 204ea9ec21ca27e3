package core

import (
	"crypto/rand"
	"math/big"
	"reflect"
	"testing"
	"time"

	"cicero/internal/bft"
	"cicero/internal/controlplane"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/pki"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

// These tests exercise the paper's threat model (§2.2/§3.2) end to end
// with real cryptography: a malicious controller — even an authenticated
// member of the control plane — cannot make switches apply updates without
// a quorum of t = ⌊(n−1)/3⌋+1 signature shares.

// buildSecure builds a real-crypto Cicero pod.
func buildSecure(t *testing.T, agg controlplane.Aggregation) *Network {
	t.Helper()
	cfg := topology.DefaultFabricConfig()
	cfg.RacksPerPod = 3
	cfg.HostsPerRack = 1
	g, err := topology.BuildSinglePod(cfg)
	if err != nil {
		t.Fatalf("BuildSinglePod: %v", err)
	}
	n, err := Build(Config{
		Graph:       g,
		Protocol:    controlplane.ProtoCicero,
		Aggregation: agg,
		Cost:        protocol.Calibrated(),
		CryptoReal:  true,
		Seed:        21,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

// evilNode is a Byzantine controller implementation used to inject
// forged traffic from a registered network position.
type evilNode struct{}

func (evilNode) HandleMessage(simnet.NodeID, simnet.Message) {}

func TestForgedUpdateRejectedWithoutQuorum(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	evil := simnet.NodeID("evil-controller")
	n.Net.Register(evil, evilNode{})

	// The attacker crafts an update installing a malicious route and
	// sends it with a garbage share, then with one replayed-looking share
	// index — never reaching the quorum of 3.
	target := topology.ToRName(0, 0, 0)
	mod := openflow.FlowMod{Op: openflow.FlowAdd, Switch: target, Rule: openflow.Rule{
		Priority: 99,
		Match:    openflow.Match{Src: openflow.Wildcard, Dst: "attacker-sink"},
		Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "attacker-sink"},
	}}
	id := openflow.MsgID{Origin: "evil", Seq: 1}
	sw := n.Switches[target]
	params := n.Scheme.Params
	junk := params.PointBytes(params.ScalarBaseMul(bigOne()))
	for idx := uint32(1); idx <= 2; idx++ {
		n.Net.Send(evil, simnet.NodeID(target), protocol.MsgUpdate{
			UpdateID:   id,
			Mods:       []openflow.FlowMod{mod},
			Phase:      0,
			From:       "evil",
			ShareIndex: idx,
			Share:      junk,
		}, 256)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := sw.Lookup("x", "attacker-sink"); ok {
		t.Fatal("switch installed a sub-quorum update")
	}

	// With a third junk share the quorum count is reached, but aggregate
	// verification must fail.
	n.Net.Send(evil, simnet.NodeID(target), protocol.MsgUpdate{
		UpdateID: id, Mods: []openflow.FlowMod{mod}, Phase: 0,
		From: "evil", ShareIndex: 3, Share: junk,
	}, 256)
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := sw.Lookup("x", "attacker-sink"); ok {
		t.Fatal("switch installed an update with forged shares")
	}
	if sw.UpdatesRejected == 0 {
		t.Fatal("forged update was not counted as rejected")
	}
}

// TestCompromisedControllerCannotForgeAlone gives the attacker a REAL key
// share (an insider) — still below the quorum, so its signed-but-lonely
// update must not be applied, while honest traffic continues.
func TestCompromisedControllerCannotForgeAlone(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	insiderShare := dom.Shares[3] // a genuine share

	evil := simnet.NodeID("insider")
	n.Net.Register(evil, evilNode{})

	target := topology.ToRName(0, 0, 1)
	mod := openflow.FlowMod{Op: openflow.FlowAdd, Switch: target, Rule: openflow.Rule{
		Priority: 99,
		Match:    openflow.Match{Src: openflow.Wildcard, Dst: "exfil"},
		Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "exfil"},
	}}
	id := openflow.MsgID{Origin: "insider", Seq: 1}
	canonical := openflow.CanonicalUpdateBytes(id, 0, []openflow.FlowMod{mod})
	share := n.Scheme.SignShare(insiderShare, canonical)
	raw := n.Scheme.Params.PointBytes(share.Point)
	// The insider replays its single valid share under three different
	// claimed indices; only its own index verifies, and one share < t.
	for idx := uint32(1); idx <= 3; idx++ {
		n.Net.Send(evil, simnet.NodeID(target), protocol.MsgUpdate{
			UpdateID: id, Mods: []openflow.FlowMod{mod}, Phase: 0,
			From: "insider", ShareIndex: idx, Share: raw,
		}, 256)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Switches[target].Lookup("x", "exfil"); ok {
		t.Fatal("one compromised share sufficed to install an update")
	}
}

func TestPacketOutInjectionDropped(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	evil := simnet.NodeID("evil")
	n.Net.Register(evil, evilNode{})
	target := topology.ToRName(0, 0, 0)
	n.Net.Send(evil, simnet.NodeID(target), openflow.PacketOut{
		ID: openflow.MsgID{Origin: "evil", Seq: 1}, Switch: target,
		Src: "a", Dst: "b", Payload: "dos",
	}, 1500)
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Switches[target].UpdatesRejected != 1 {
		t.Fatalf("PACKET_OUT injection not rejected (rejected=%d)",
			n.Switches[target].UpdatesRejected)
	}
}

// sealEventToMembers sends ev from the node `from` to every controller of
// domain 0, each copy sealed by link for its addressee; claim, when set,
// overwrites the sender the envelopes name.
func sealEventToMembers(t *testing.T, n *Network, from simnet.NodeID, link *pki.Link, claim pki.Identity, ev protocol.Event) {
	t.Helper()
	for _, m := range n.Domains[0].Members {
		env, err := link.Seal(m, ev.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if claim != "" {
			env.From = claim
		}
		n.Net.Send(from, simnet.NodeID(m), protocol.MsgEvent{Env: env}, 256)
	}
}

func TestForgedEventFromUnknownSourceIgnored(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	evilKeys, err := pki.NewKeyPair(rand.Reader, "ghost-switch")
	if err != nil {
		t.Fatal(err)
	}
	// NOT registered in the directory.
	evil := simnet.NodeID("ghost-switch")
	n.Net.Register(evil, evilNode{})
	ev := protocol.Event{
		ID:   openflow.MsgID{Origin: "ghost-switch", Seq: 1},
		Kind: protocol.EventFlowRequest,
		Src:  topology.HostName(0, 0, 0, 0),
		Dst:  topology.HostName(0, 0, 2, 0),
	}
	sealEventToMembers(t, n, evil, pki.NewLink(evilKeys, n.Directory), "", ev)
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ctl := range n.Domains[0].Controllers {
		if ctl.EventsDelivered != 0 {
			t.Fatal("event from unregistered source was processed")
		}
	}
}

func TestMasqueradingEventRejected(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	// A registered but different identity seals an event claiming to be a
	// switch (the §2.2 masquerading threat).
	evilKeys, err := pki.NewKeyPair(rand.Reader, "evil-member")
	if err != nil {
		t.Fatal(err)
	}
	n.Directory.MustRegister(evilKeys)
	evil := simnet.NodeID("evil-member")
	n.Net.Register(evil, evilNode{})
	ev := protocol.Event{
		ID:   openflow.MsgID{Origin: topology.ToRName(0, 0, 0), Seq: 999},
		Kind: protocol.EventFlowRequest,
		Src:  topology.HostName(0, 0, 0, 0),
		Dst:  topology.HostName(0, 0, 2, 0),
	}
	sealEventToMembers(t, n, evil, pki.NewLink(evilKeys, n.Directory),
		pki.Identity(topology.ToRName(0, 0, 0)), ev) // claim switch identity
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ctl := range n.Domains[0].Controllers {
		if ctl.EventsDelivered != 0 {
			t.Fatal("masqueraded event was processed")
		}
	}
}

// TestEnvelopeForOneControllerRejectedByAnother: an envelope authenticates
// its sender to one addressee. Whoever sees it in transit — the addressee
// itself, if Byzantine — cannot replay it to the other controllers.
func TestEnvelopeForOneControllerRejectedByAnother(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	ingress := topology.ToRName(0, 0, 0)
	ev := protocol.Event{
		ID:   openflow.MsgID{Origin: ingress, Seq: 999},
		Kind: protocol.EventFlowRequest,
		Src:  topology.HostName(0, 0, 0, 0),
		Dst:  topology.HostName(0, 0, 2, 0),
	}
	// The switch's own link, so the envelope is as genuine as they come.
	env, err := pki.NewLink(n.Keys[pki.Identity(ingress)], n.Directory).Seal(dom.Members[0], ev.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range dom.Members {
		n.Net.Send(simnet.NodeID(dom.Members[0]), simnet.NodeID(m), protocol.MsgEvent{Env: env}, 256)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ctl := range dom.Controllers {
		want := uint64(0)
		if i == 0 {
			want = 1
		}
		if ctl.EventsReceived != want {
			t.Fatalf("%s accepted %d events from an envelope sealed to %s, want %d",
				ctl.ID(), ctl.EventsReceived, dom.Members[0], want)
		}
	}
}

// ctlReading is what a presented envelope could move at a controller.
type ctlReading struct {
	EventsReceived, AcksReceived, LastDelivered uint64
	Ledger                                      int
	Last                                        string
}

func readController(c *controlplane.Controller) ctlReading {
	recs := c.AuditRecords()
	_, delivered := c.BroadcastCoords()
	r := ctlReading{EventsReceived: c.EventsReceived, AcksReceived: c.AcksReceived, LastDelivered: delivered, Ledger: len(recs)}
	if len(recs) > 0 {
		r.Last = recs[len(recs)-1].Subject
	}
	return r
}

// TestEnvelopeKindsDoNotCross: a link tag covers sender, addressee and
// payload, not what the payload is. So a switch's genuine ack envelope can be
// replayed to its own addressee as an event, and a genuine event envelope as
// an ack, and both open. The kind byte inside the payload is what refuses
// them: nothing is received, nothing is ordered, no ledger grows. (When the
// payloads were JSON, any object decoded to a zero Event, and "#0" was
// ordered and ledgered by every controller.)
func TestEnvelopeKindsDoNotCross(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	src, dst := topology.HostName(0, 0, 0, 0), topology.HostName(0, 0, 2, 0)
	if _, err := n.RunFlows([]workload.Flow{{ID: 1, Src: src, Dst: dst, SizeKB: 32}}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	before := make([]ctlReading, len(dom.Controllers))
	for i, c := range dom.Controllers {
		before[i] = readController(c)
	}

	sw := topology.ToRName(0, 0, 0)
	link := pki.NewLink(n.Keys[pki.Identity(sw)], n.Directory)
	ack := protocol.Ack{UpdateID: openflow.MsgID{Origin: sw + "#1/d0", Seq: 0}, Applied: true}
	ev := protocol.Event{ID: openflow.MsgID{Origin: sw, Seq: 2}, Kind: protocol.EventFlowRequest, Src: dst, Dst: src}
	for _, m := range dom.Members {
		ackEnv, err := link.Seal(m, ack.Encode())
		if err != nil {
			t.Fatal(err)
		}
		evEnv, err := link.Seal(m, ev.Encode())
		if err != nil {
			t.Fatal(err)
		}
		n.Net.Send(simnet.NodeID(sw), simnet.NodeID(m), protocol.MsgEvent{Env: ackEnv}, 256)
		n.Net.Send(simnet.NodeID(sw), simnet.NodeID(m), protocol.MsgAck{Env: evEnv}, 256)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range dom.Controllers {
		if after := readController(c); after != before[i] {
			t.Errorf("%s took an ack for an event or an event for an ack:\n before %+v\n after  %+v", c.ID(), before[i], after)
		}
	}
}

// TestEventWithForgedOriginRejected: an event speaks for the switch that
// sealed it. A genuine switch of the domain seals, with its own link, a
// teardown under another switch's next event id; accepted, it would be
// ordered, ledgered, planned and threshold-signed in the victim's name, and
// the victim's own event of that id dropped as a duplicate. Only the sealer's
// own id, or one under it (<switch>/td), is an origin it may use, and it may
// not mark its own event as forwarded from another domain.
func TestEventWithForgedOriginRejected(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	src, dst := topology.HostName(0, 0, 0, 0), topology.HostName(0, 0, 2, 0)
	if _, err := n.RunFlows([]workload.Flow{{ID: 1, Src: src, Dst: dst, SizeKB: 32}}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	victim, forger := topology.ToRName(0, 0, 0), topology.ToRName(0, 0, 1)
	link := pki.NewLink(n.Keys[pki.Identity(forger)], n.Directory)
	teardown := func(origin string, seq uint64) protocol.Event {
		return protocol.Event{ID: openflow.MsgID{Origin: origin, Seq: seq}, Kind: protocol.EventFlowTeardown, Src: src, Dst: dst}
	}
	run := func() {
		t.Helper()
		if _, err := n.Sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	subjects := func(c *controlplane.Controller, from int) []string {
		var out []string
		for _, r := range c.AuditRecords()[from:] {
			out = append(out, r.Kind.String()+" "+r.Subject)
		}
		return out
	}
	honest := dom.Controllers[0]
	ledger := len(honest.AuditRecords())

	forged := teardown(victim, 2)
	asForwarded := teardown(victim+"/fwd", 1)
	asForwarded.Forwarded = true
	for _, ev := range []protocol.Event{
		forged,                    // the victim's next id
		teardown(victim+"/td", 1), // an id under the victim's
		teardown(forger+"x", 1),   // the forger's id as a bare prefix, not a path
		asForwarded,               // "another domain's controller relayed this"
	} {
		sealEventToMembers(t, n, simnet.NodeID(forger), link, "", ev)
	}
	run()
	for _, c := range dom.Controllers {
		if c.EventsReceived != 1 || c.EventsDelivered != 1 || len(c.AuditRecords()) != ledger {
			t.Fatalf("%s took events %s sealed under origins it does not own: received %d delivered %d, ledger gained %v",
				c.ID(), forger, c.EventsReceived, c.EventsDelivered, subjects(c, ledger))
		}
	}
	if _, ok := n.Switches[victim].Lookup(src, dst); !ok {
		t.Fatalf("%s lost the flow's rule to a teardown %s sealed", victim, forger)
	}

	// The victim's own event of that id is the first the controllers hear
	// under it, and a switch may still use ids under its own.
	n.Switches[victim].EmitEvent(forged)
	run()
	if honest.EventsDelivered != 2 {
		t.Fatalf("%s's own %s: EventsDelivered = %d, want 2", victim, forged.ID, honest.EventsDelivered)
	}
	n.Switches[forger].EmitEvent(teardown(forger+"/td", 1))
	run()
	if honest.EventsDelivered != 3 {
		t.Fatalf("%s's own %s/td#1: EventsDelivered = %d, want 3", forger, forger, honest.EventsDelivered)
	}
}

// TestByzantineControllerForgedAckCannotReorder: with n = 4 and t = 2, one
// Byzantine controller plus one honest controller it can trick is a release
// quorum. The trick it tries: acknowledge, under its own (registered,
// authenticated) identity, an update that was sent to a switch — so the
// honest peer releases the dependent update while the dependency has not
// been applied. Only the addressed switch can acknowledge an update, whether
// the forged ack lands before the plan or after it.
func TestByzantineControllerForgedAckCannotReorder(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	byz, honest := dom.Members[3], dom.Members[0]
	ingress := topology.ToRName(0, 0, 0)
	ev := protocol.Event{
		ID:   openflow.MsgID{Origin: ingress, Seq: 1},
		Kind: protocol.EventFlowRequest,
		Src:  topology.HostName(0, 0, 0, 0),
		Dst:  topology.HostName(0, 0, 2, 0),
	}
	mods, err := n.Cfg.newApp().PlanFlow(ev)
	if err != nil || len(mods) < 2 {
		t.Fatalf("PlanFlow: %d mods, err %v", len(mods), err)
	}
	// Reverse-path order: the egress switch's update goes first and the one
	// upstream of it depends on it.
	origin := ev.ID.String() + "/d0"
	last := len(mods) - 1
	dependency := openflow.MsgID{Origin: origin, Seq: uint64(last)}
	dependent := openflow.MsgID{Origin: origin, Seq: uint64(last - 1)}
	depSwitch, nextSwitch := mods[last].Switch, mods[last-1].Switch

	// The dependency never reaches its switch, so nothing may follow it.
	for _, m := range dom.Members {
		n.Net.PartitionOneWay(simnet.NodeID(m), simnet.NodeID(depSwitch))
	}
	// The Byzantine controller contributes its genuine share of the
	// dependent right away: one more share is a quorum.
	canonical := openflow.CanonicalUpdateBytes(dependent, 0, mods[last-1:last])
	share := n.Scheme.SignShare(dom.Shares[3], canonical)
	n.Net.Send(simnet.NodeID(byz), simnet.NodeID(nextSwitch), protocol.MsgUpdate{
		UpdateID: dependent, Mods: mods[last-1 : last], From: byz,
		ShareIndex: dom.Shares[3].Index, Share: n.Scheme.Params.PointBytes(share.Point),
	}, 256)
	// And it acknowledges the dependency itself (where an ack names its
	// switch: naming the switch, then naming itself), before the honest peer
	// has planned the event and again after.
	link := pki.NewLink(n.Keys[byz], n.Directory)
	forgeAcks := func() {
		for _, claimed := range []string{depSwitch, string(byz)} {
			ack := protocol.Ack{UpdateID: dependency, Applied: true}
			claimSwitch(&ack, claimed)
			env, err := link.Seal(honest, ack.Encode())
			if err != nil {
				t.Error(err)
				return
			}
			n.Net.Send(simnet.NodeID(byz), simnet.NodeID(honest), protocol.MsgAck{Env: env}, 128)
		}
	}
	n.Sim.At(0, forgeAcks)
	n.Sim.At(0, func() { n.Switches[ingress].EmitEvent(ev) })
	n.Sim.At(200*time.Millisecond, forgeAcks)
	if _, err := n.Sim.RunUntil(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	if n.Switches[depSwitch].UpdatesApplied != 0 {
		t.Fatalf("%s applied the dependency through a one-way partition", depSwitch)
	}
	if dom.Controllers[0].UpdatesSigned == 0 {
		t.Fatal("the honest controller never planned the event")
	}
	if _, ok := n.Switches[nextSwitch].Lookup(ev.Src, ev.Dst); ok || n.Switches[nextSwitch].UpdatesApplied != 0 {
		t.Fatalf("%s applied %s before %s applied its dependency %s: a forged ack released it",
			nextSwitch, dependent, depSwitch, dependency)
	}
}

// claimSwitch writes id into an ack's self-declared switch field, if the type
// has one. No ack names its switch, so here this does nothing and an ack
// counts for whoever sealed it; on a tree whose protocol.Ack still carries
// Switch, the same test drives the forgery that field invited.
func claimSwitch(ack *protocol.Ack, id string) {
	if f := reflect.ValueOf(ack).Elem().FieldByName("Switch"); f.IsValid() {
		f.SetString(id)
	}
}

// voteInNameOf writes slot into a broadcast vote's self-declared voter field,
// if its type has one. No vote names its voter, so here this does nothing
// and a vote counts for the controller the fabric says sent it; on a tree
// whose bft.Prepare and bft.Commit still carry Replica, the same test drives
// the forgery that field allowed.
func voteInNameOf[T any](vote T, slot int) T {
	if f := reflect.ValueOf(&vote).Elem().FieldByName("Replica"); f.IsValid() {
		f.SetUint(uint64(slot))
	}
	return vote
}

// TestByzantinePrimaryCannotSplitDelivery is the agreement guarantee under
// the update quorum (§3.2, n = 3f+1): the Byzantine primary of view 0
// proposes event A to one honest controller and event B to another for the
// same sequence number, sends each of them the prepares and commits of the
// members it did not ask, and adds its own genuine share to the first update
// of both plans — one more share each is the update quorum of two. One
// sender is one vote: neither controller may deliver, no switch may apply an
// update of A or of B, and once a real event times the silent primary out of
// its view the honest ledgers hold that event and nothing else.
func TestByzantinePrimaryCannotSplitDelivery(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	byz := simnet.NodeID(dom.Members[0])
	dom.Controllers[0].Stop()
	n.Net.Register(byz, evilNode{})

	egressHost := topology.HostName(0, 0, 2, 0)
	flowEvent := func(origin, src string) protocol.Event {
		return protocol.Event{ID: openflow.MsgID{Origin: origin, Seq: 1}, Kind: protocol.EventFlowRequest, Src: src, Dst: egressHost}
	}
	evA := flowEvent("byz/a", topology.HostName(0, 0, 0, 0))
	evB := flowEvent("byz/b", topology.HostName(0, 0, 1, 0))
	egress := topology.ToRName(0, 0, 2)
	// split[i] goes to the honest controller in slot i+1 (replica id i+2),
	// with votes in the names of the two replicas the primary did not ask.
	split := []struct {
		ev    protocol.Event
		names []int
	}{{evA, []int{3, 4}}, {evB, []int{2, 4}}}
	for i, sp := range split {
		victim := simnet.NodeID(dom.Members[i+1])
		payload := protocol.BroadcastItem{Event: &sp.ev}.Encode()
		d := bft.PayloadDigest(payload)
		send := func(inner bft.Message) {
			n.Net.Send(byz, victim, protocol.MsgBFT{Inner: inner}, 256)
		}
		send(bft.PrePrepare{Seq: 1, Digest: d, Payload: payload})
		for _, name := range sp.names {
			send(voteInNameOf(bft.Prepare{Seq: 1, Digest: d}, name))
		}
		for _, name := range sp.names {
			send(voteInNameOf(bft.Commit{Seq: 1, Digest: d}, name))
		}
		// The plan's first update is the egress switch's (reverse-path order).
		mods, err := n.Cfg.newApp().PlanFlow(sp.ev)
		if err != nil || len(mods) == 0 || mods[len(mods)-1].Switch != egress {
			t.Fatalf("PlanFlow(%s): %d mods, err %v", sp.ev.ID, len(mods), err)
		}
		last := len(mods) - 1
		id := openflow.MsgID{Origin: sp.ev.ID.String() + "/d0", Seq: uint64(last)}
		share := n.Scheme.SignShare(dom.Shares[0], openflow.CanonicalUpdateBytes(id, 0, mods[last:]))
		n.Net.Send(byz, simnet.NodeID(egress), protocol.MsgUpdate{
			UpdateID: id, Mods: mods[last:], From: dom.Members[0],
			ShareIndex: dom.Shares[0].Index, Share: n.Scheme.Params.PointBytes(share.Point),
		}, 256)
	}
	if _, err := n.Sim.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	honest := dom.Controllers[1:]
	firstEvent := func(c *controlplane.Controller) string {
		if evs := eventRecords(c.AuditRecords()); len(evs) > 0 {
			return evs[0].Subject
		}
		return ""
	}
	if a, b := firstEvent(honest[0]), firstEvent(honest[1]); a != "" || b != "" || n.Switches[egress].UpdatesApplied != 0 {
		t.Fatalf("the primary's forged votes split delivery: %s ledger[0]=%q, %s ledger[0]=%q, %s applied %d updates",
			honest[0].ID(), a, honest[1].ID(), b, egress, n.Switches[egress].UpdatesApplied)
	}

	// A real event: the honest members forward it to a primary that never
	// answers, time out, and order it in view 1.
	ingress := topology.ToRName(0, 0, 0)
	evC := flowEvent(ingress, topology.HostName(0, 0, 0, 0))
	n.Sim.At(n.Sim.Now(), func() { n.Switches[ingress].EmitEvent(evC) })
	if _, err := n.Sim.RunUntil(n.Sim.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	for _, c := range honest {
		evs := eventRecords(c.AuditRecords())
		if view, _ := c.BroadcastCoords(); view == 0 || len(evs) != 1 || evs[0].Subject != evC.ID.String() {
			t.Fatalf("%s at view %d holds %d events (first %q), want only %s after a view change",
				c.ID(), view, len(evs), firstEvent(c), evC.ID)
		}
	}
	if _, ok := n.Switches[ingress].Lookup(evC.Src, evC.Dst); !ok {
		t.Fatalf("%s never installed the rule of %s", ingress, evC.ID)
	}
}

// TestByzantineAggregatorCannotForge runs controller aggregation and makes
// the aggregator Byzantine: it forwards a forged aggregate. The switch
// must reject it, and (separately) honest switch-aggregation still works
// for the same update.
func TestByzantineAggregatorCannotForge(t *testing.T) {
	n := buildSecure(t, controlplane.AggController)
	dom := n.Domains[0]
	aggregator := dom.Members[0]
	target := topology.ToRName(0, 0, 2)

	mod := openflow.FlowMod{Op: openflow.FlowAdd, Switch: target, Rule: openflow.Rule{
		Priority: 99,
		Match:    openflow.Match{Src: openflow.Wildcard, Dst: "forged"},
		Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "forged"},
	}}
	id := openflow.MsgID{Origin: "agg-forge", Seq: 1}
	// The Byzantine aggregator signs with only ITS key share and claims
	// the result is the aggregate.
	canonical := openflow.CanonicalUpdateBytes(id, 0, []openflow.FlowMod{mod})
	lone := n.Scheme.SignShare(dom.Shares[0], canonical)
	n.Net.Send(simnet.NodeID(aggregator), simnet.NodeID(target), protocol.MsgAggUpdate{
		UpdateID: id, Mods: []openflow.FlowMod{mod}, Phase: 0,
		Signature: n.Scheme.Params.PointBytes(lone.Point),
	}, 256)
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Switches[target].Lookup("x", "forged"); ok {
		t.Fatal("switch accepted a single-share 'aggregate'")
	}
	if n.Switches[target].UpdatesRejected == 0 {
		t.Fatal("forged aggregate not rejected")
	}
}

// TestHonestQuorumStillWorksDespiteByzantineShare mixes one corrupted
// share into an otherwise honest switch-aggregation flow: CombineVerified
// filters it and the update applies.
func TestHonestQuorumStillWorksDespiteByzantineShare(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	target := topology.ToRName(0, 0, 0)
	sw := n.Switches[target]

	mod := openflow.FlowMod{Op: openflow.FlowAdd, Switch: target, Rule: openflow.Rule{
		Priority: 10,
		Match:    openflow.Match{Src: openflow.Wildcard, Dst: "legit"},
		Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: topology.EdgeName(0, 0, 0)},
	}}
	id := openflow.MsgID{Origin: "mixed", Seq: 1}
	canonical := openflow.CanonicalUpdateBytes(id, 0, []openflow.FlowMod{mod})

	evil := simnet.NodeID("byz-member")
	n.Net.Register(evil, evilNode{})
	// Byzantine share arrives first (index 1, corrupted).
	junk := n.Scheme.Params.PointBytes(n.Scheme.Params.ScalarBaseMul(bigOne()))
	n.Net.Send(evil, simnet.NodeID(target), protocol.MsgUpdate{
		UpdateID: id, Mods: []openflow.FlowMod{mod}, Phase: 0,
		From: "byz", ShareIndex: 1, Share: junk,
	}, 256)
	// Then three honest shares (indices 2..4).
	for i := 1; i <= 3; i++ {
		share := n.Scheme.SignShare(dom.Shares[i], canonical)
		n.Net.Send(evil, simnet.NodeID(target), protocol.MsgUpdate{
			UpdateID: id, Mods: []openflow.FlowMod{mod}, Phase: 0,
			From: "honest", ShareIndex: dom.Shares[i].Index,
			Share: n.Scheme.Params.PointBytes(share.Point),
		}, 256)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := sw.Lookup("x", "legit"); !ok {
		t.Fatal("honest quorum failed to install despite Byzantine share")
	}
}

// TestCrashBaselineAcceptsForgedUpdate is the negative control motivating
// Cicero: without quorum authentication, a single malicious controller
// fully controls the data plane.
func TestCrashBaselineAcceptsForgedUpdate(t *testing.T) {
	cfg := topology.DefaultFabricConfig()
	cfg.RacksPerPod = 3
	g, err := topology.BuildSinglePod(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(Config{
		Graph:                g,
		Protocol:             controlplane.ProtoCrash,
		ControllersPerDomain: 4,
		Cost:                 protocol.Calibrated(),
		CryptoReal:           true,
		Seed:                 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	evil := simnet.NodeID("evil")
	n.Net.Register(evil, evilNode{})
	target := topology.ToRName(0, 0, 0)
	mod := openflow.FlowMod{Op: openflow.FlowAdd, Switch: target, Rule: openflow.Rule{
		Priority: 99,
		Match:    openflow.Match{Src: openflow.Wildcard, Dst: "pwned"},
		Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "pwned"},
	}}
	n.Net.Send(evil, simnet.NodeID(target), protocol.MsgUpdate{
		UpdateID: openflow.MsgID{Origin: "evil", Seq: 1},
		Mods:     []openflow.FlowMod{mod},
	}, 256)
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Switches[target].Lookup("x", "pwned"); !ok {
		t.Fatal("negative control failed: crash baseline should accept unauthenticated updates")
	}
}

// TestCiceroSurvivesControllerCrash crashes one of four controllers and
// verifies flows still complete (t = 2 < remaining 3 signers... the
// quorum is 2 of 4; 3 live members still reach it).
func TestCiceroSurvivesControllerCrash(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	// Crash a non-primary, non-bootstrap member.
	victim := dom.Members[3]
	n.Net.Crash(simnet.NodeID(victim))
	dom.Controllers[3].Stop()

	src := topology.HostName(0, 0, 0, 0)
	dst := topology.HostName(0, 0, 2, 0)
	results, err := n.RunFlows([]workload.Flow{{ID: 1, Src: src, Dst: dst, SizeKB: 64, Start: 0}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].SetupDelay == 0 {
		t.Fatalf("flow did not complete under one controller crash: %+v", results)
	}
}

// bigOne is a tiny helper for building junk points.
func bigOne() *big.Int { return big.NewInt(1) }
