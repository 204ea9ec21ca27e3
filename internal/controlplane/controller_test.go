package controlplane

import (
	"crypto/rand"
	"math"
	"reflect"
	"strings"
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
	"cicero/internal/topology"
)

// lineGraph builds h1 - s1 - s2 - s3 - h2.
func lineGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	for _, id := range []string{"s1", "s2", "s3"} {
		g.AddNode(topology.Node{ID: id, Kind: topology.KindToR})
	}
	g.AddNode(topology.Node{ID: "h1", Kind: topology.KindHost})
	g.AddNode(topology.Node{ID: "h2", Kind: topology.KindHost})
	for _, l := range [][2]string{{"h1", "s1"}, {"s1", "s2"}, {"s2", "s3"}, {"s3", "h2"}} {
		if err := g.AddLink(l[0], l[1], 100*time.Microsecond, 10); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// stubSwitch records updates and, unless mute, acks them immediately.
type stubSwitch struct {
	id       string
	net      *simnet.Network
	link     *pki.Link
	updates  []protocol.MsgUpdate
	acksSent int
	members  []pki.Identity
	mute     bool
}

func (s *stubSwitch) HandleMessage(from simnet.NodeID, msg simnet.Message) {
	if m, ok := msg.(protocol.MsgUpdate); ok {
		s.updates = append(s.updates, m)
		if s.mute {
			return
		}
		s.acksSent++
		sendAcks(s.net, s.link, s.id, s.members, m.UpdateID)
	}
}

// ackNaming builds an applied ack for update. No ack names its switch, so
// here claimed goes unused and an ack counts for whoever sealed it; on a tree
// whose protocol.Ack still carries Switch, the same tests fill it in, as a
// switch there did and a forger could.
func ackNaming(update openflow.MsgID, claimed string) protocol.Ack {
	ack := protocol.Ack{UpdateID: update, Applied: true}
	if f := reflect.ValueOf(&ack).Elem().FieldByName("Switch"); f.IsValid() {
		f.SetString(claimed)
	}
	return ack
}

// sendAcks acknowledges an update as switch id does: one envelope sealed to
// each controller.
func sendAcks(net *simnet.Network, link *pki.Link, id string, members []pki.Identity, update openflow.MsgID) {
	payload := ackNaming(update, id).Encode()
	for _, ctl := range members {
		env, err := link.Seal(ctl, payload)
		if err != nil {
			panic(err)
		}
		net.Send(simnet.NodeID(id), simnet.NodeID(ctl), protocol.MsgAck{Env: env}, 128)
	}
}

func TestCiceroQuorumFormula(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{4, 2}, {5, 2}, {6, 2}, {7, 3}, {9, 3}, {10, 4}, {13, 5},
	} {
		if got := CiceroQuorum(tc.n); got != tc.want {
			t.Errorf("CiceroQuorum(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	sim := simnet.NewSimulator(1)
	net := simnet.NewNetwork(sim, time.Millisecond)
	keys, _ := pki.NewKeyPair(rand.Reader, "c")
	dir := pki.NewDirectory()
	g := lineGraph(t)
	app := &routing.ShortestPath{Graph: g}

	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{ID: "c", Net: net, Keys: keys, Directory: dir}); err == nil {
		t.Error("missing app accepted")
	}
	if _, err := New(Config{
		ID: "c", Net: net, Keys: keys, Directory: dir,
		App: app, Sched: scheduler.ReversePath{},
		Protocol: ProtoCicero, Members: []pki.Identity{"c", "d", "e"},
	}); err == nil {
		t.Error("cicero with 3 members accepted")
	}
}

// TestCentralizedDependencyOrderedDispatch drives a centralized controller
// with a stub switch: updates must be released in reverse-path order,
// gated on acks.
func TestCentralizedDependencyOrderedDispatch(t *testing.T) {
	sim := simnet.NewSimulator(1)
	net := simnet.NewNetwork(sim, 100*time.Microsecond)
	dir := pki.NewDirectory()
	g := lineGraph(t)

	ctlKeys, _ := pki.NewKeyPair(rand.Reader, "ctl")
	dir.MustRegister(ctlKeys)
	ctl, err := New(Config{
		ID:        "ctl",
		Members:   []pki.Identity{"ctl"},
		Net:       net,
		Keys:      ctlKeys,
		Directory: dir,
		Protocol:  ProtoCentralized,
		App:       &routing.ShortestPath{Graph: g},
		Sched:     scheduler.ReversePath{},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_ = ctl

	stubs := make(map[string]*stubSwitch)
	for _, id := range []string{"s1", "s2", "s3"} {
		keys, _ := pki.NewKeyPair(rand.Reader, pki.Identity(id))
		dir.MustRegister(keys)
		st := &stubSwitch{id: id, net: net, link: pki.NewLink(keys, dir), members: []pki.Identity{"ctl"}}
		stubs[id] = st
		net.Register(simnet.NodeID(id), st)
	}

	swKeys, _ := pki.NewKeyPair(rand.Reader, "origin")
	dir.MustRegister(swKeys)
	ev := protocol.Event{
		ID:   openflow.MsgID{Origin: "origin", Seq: 1},
		Kind: protocol.EventFlowRequest,
		Src:  "h1", Dst: "h2",
	}
	ctl.InjectEvent(ev)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Each switch got exactly one update.
	for id, st := range stubs {
		if len(st.updates) != 1 {
			t.Fatalf("switch %s got %d updates, want 1", id, len(st.updates))
		}
	}
	if ctl.EventsDelivered != 1 || ctl.AcksReceived != 3 {
		t.Fatalf("delivered=%d acks=%d, want 1/3", ctl.EventsDelivered, ctl.AcksReceived)
	}
	// Duplicate injection is deduplicated.
	ctl.InjectEvent(ev)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if ctl.EventsDelivered != 1 {
		t.Fatal("duplicate event processed twice")
	}
}

// TestPlanEventOriginPinned pins, byte for byte, the origin planEvent gives
// an event's updates: it is inside every signed update and every ledger
// entry, so all controllers must spell it alike.
func TestPlanEventOriginPinned(t *testing.T) {
	long := strings.Repeat("o", 70)
	for _, tc := range []struct {
		id     openflow.MsgID
		domain int
		want   string
	}{
		{openflow.MsgID{Origin: "d0-p0-tor1", Seq: 42}, 0, "d0-p0-tor1#42/d0"},
		{openflow.MsgID{Origin: "ctl/1#x", Seq: 0}, 13, "ctl/1#x#0/d13"},
		{openflow.MsgID{Origin: long, Seq: math.MaxUint64}, -1, long + "#18446744073709551615/d-1"},
	} {
		sim := simnet.NewSimulator(1)
		net := simnet.NewNetwork(sim, 100*time.Microsecond)
		dir := pki.NewDirectory()
		keys, _ := pki.NewKeyPair(rand.Reader, "ctl")
		dir.MustRegister(keys)
		ctl, err := New(Config{
			ID: "ctl", Members: []pki.Identity{"ctl"}, Net: net, Keys: keys, Directory: dir,
			Protocol: ProtoCentralized, Domain: tc.domain,
			App: &routing.ShortestPath{Graph: lineGraph(t)}, Sched: scheduler.ReversePath{},
		})
		if err != nil {
			t.Fatal(err)
		}
		plan, ok := ctl.planEvent(protocol.Event{ID: tc.id, Kind: protocol.EventFlowRequest, Src: "h1", Dst: "h2"})
		if !ok || len(plan) != 3 {
			t.Fatalf("%s: planned %d updates (%v), want 3", tc.want, len(plan), ok)
		}
		for _, su := range plan {
			if su.ID.Origin != tc.want {
				t.Errorf("update origin %q, want %q", su.ID.Origin, tc.want)
			}
		}
	}
}

// TestAckFromAnotherIdentityReleasesNothing: s3 holds the first update of a
// reverse-path plan and stays silent. A registered identity that is not s3
// acknowledges that update — twice; where an ack names its switch, naming s3,
// then itself — and the controller must keep s2's dependent update back until
// s3 itself answers.
func TestAckFromAnotherIdentityReleasesNothing(t *testing.T) {
	sim := simnet.NewSimulator(1)
	net := simnet.NewNetwork(sim, 100*time.Microsecond)
	dir := pki.NewDirectory()
	ctlKeys, _ := pki.NewKeyPair(rand.Reader, "ctl")
	dir.MustRegister(ctlKeys)
	ctl, err := New(Config{
		ID: "ctl", Members: []pki.Identity{"ctl"}, Net: net, Keys: ctlKeys, Directory: dir,
		Protocol: ProtoCentralized, CryptoReal: true,
		App: &routing.ShortestPath{Graph: lineGraph(t)}, Sched: scheduler.ReversePath{},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stubs := make(map[string]*stubSwitch)
	for _, id := range []string{"s1", "s2", "s3"} {
		keys, _ := pki.NewKeyPair(rand.Reader, pki.Identity(id))
		dir.MustRegister(keys)
		stubs[id] = &stubSwitch{id: id, net: net, link: pki.NewLink(keys, dir), members: []pki.Identity{"ctl"}, mute: id == "s3"}
		net.Register(simnet.NodeID(id), stubs[id])
	}
	evilKeys, _ := pki.NewKeyPair(rand.Reader, "evil-member")
	dir.MustRegister(evilKeys)
	evil := pki.NewLink(evilKeys, dir)
	net.Register("evil-member", simnet.HandlerFunc(func(simnet.NodeID, simnet.Message) {}))

	run := func() {
		t.Helper()
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	ctl.InjectEvent(protocol.Event{
		ID:   openflow.MsgID{Origin: "origin", Seq: 1},
		Kind: protocol.EventFlowRequest,
		Src:  "h1", Dst: "h2",
	})
	run()
	if len(stubs["s3"].updates) != 1 || len(stubs["s2"].updates) != 0 {
		t.Fatalf("before any ack: s3 has %d updates, s2 has %d; want 1 and 0",
			len(stubs["s3"].updates), len(stubs["s2"].updates))
	}
	pending := stubs["s3"].updates[0].UpdateID
	for _, claimed := range []string{"s3", "evil-member"} {
		env, err := evil.Seal("ctl", ackNaming(pending, claimed).Encode())
		if err != nil {
			t.Fatal(err)
		}
		net.Send("evil-member", "ctl", protocol.MsgAck{Env: env}, 128)
	}
	run()
	if got := len(stubs["s2"].updates); got != 0 {
		t.Fatalf("an ack for s3's update from evil-member released %d updates to s2", got)
	}
	// s3's own ack still counts.
	sendAcks(net, stubs["s3"].link, "s3", []pki.Identity{"ctl"}, pending)
	run()
	if len(stubs["s2"].updates) != 1 || len(stubs["s1"].updates) != 1 {
		t.Fatalf("after s3's ack: s2 has %d updates, s1 has %d; want 1 and 1",
			len(stubs["s2"].updates), len(stubs["s1"].updates))
	}
}

func TestSplitNonEmpty(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"a|b|c", []string{"a", "b", "c"}},
		{"|a||b|", []string{"a", "b"}},
		{"", nil},
		{"solo", []string{"solo"}},
	}
	for _, c := range cases {
		got := splitNonEmpty(c.in, '|')
		if len(got) != len(c.want) {
			t.Fatalf("splitNonEmpty(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("splitNonEmpty(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestRequestAddControllerGuards(t *testing.T) {
	ctls := newReshareFixture(t).ctls
	// Non-bootstrap members may not initiate additions.
	if err := ctls[1].RequestAddController("c5"); err == nil {
		t.Error("non-bootstrap addition accepted")
	}
	// Adding an existing member is refused.
	if err := ctls[0].RequestAddController("c2"); err == nil {
		t.Error("duplicate member addition accepted")
	}
	// Removing a non-member is refused.
	if err := ctls[0].RequestRemoveController("ghost"); err == nil {
		t.Error("non-member removal accepted")
	}
}

// aggFixture is a lone AggController aggregator, c1 of c1..c4 with a 2-of-4
// key, on a simulator whose switch s1 records the aggregates relayed to it.
type aggFixture struct {
	sim     *simnet.Simulator
	agg     *Controller
	scheme  *bls.Scheme
	gk      *bls.GroupKey
	shares  []bls.KeyShare
	members []pki.Identity
	relayed []protocol.MsgAggUpdate
}

func newAggFixture(t *testing.T, cryptoReal bool) *aggFixture {
	t.Helper()
	f := &aggFixture{sim: simnet.NewSimulator(1), scheme: bls.NewScheme(pairing.Fast254()),
		members: []pki.Identity{"c1", "c2", "c3", "c4"}}
	net := simnet.NewNetwork(f.sim, 100*time.Microsecond)
	dir := pki.NewDirectory()
	var err error
	if f.gk, f.shares, err = dkg.Run(f.scheme, rand.Reader, 2, 4); err != nil {
		t.Fatal(err)
	}
	keys, _ := pki.NewKeyPair(rand.Reader, "c1")
	dir.MustRegister(keys)
	f.agg, err = New(Config{
		ID: "c1", Members: f.members, Net: net, Keys: keys, Directory: dir,
		Protocol: ProtoCicero, Aggregation: AggController, CryptoReal: cryptoReal,
		Scheme: f.scheme, GroupKey: f.gk, Share: f.shares[0],
		App: &routing.ShortestPath{Graph: lineGraph(t)}, Sched: scheduler.ReversePath{},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	net.Register("s1", simnet.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) {
		if m, ok := msg.(protocol.MsgAggUpdate); ok {
			f.relayed = append(f.relayed, m)
		}
	}))
	return f
}

// TestAggregatorForgedContentFirst: with the aggregator (AggController)
// collecting shares, a Byzantine controller races a forged rule to it under
// a real update id. Collection is keyed by the signed bytes, so the forged
// share sits alone and the honest shares that follow still combine into an
// aggregate over the honest rule. (Keyed by update id, the aggregator kept
// the first arrival's mods and no honest share ever verified against them.)
func TestAggregatorForgedContentFirst(t *testing.T) {
	f := newAggFixture(t, true)
	sim, agg, scheme, gk, shares, members := f.sim, f.agg, f.scheme, f.gk, f.shares, f.members

	id := openflow.MsgID{Origin: "e", Seq: 1}
	rule := func(nextHop string) []openflow.FlowMod {
		return []openflow.FlowMod{{Op: openflow.FlowAdd, Switch: "s1", Rule: openflow.Rule{
			Priority: 10,
			Match:    openflow.Match{Src: openflow.Wildcard, Dst: "h2"},
			Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: nextHop},
		}}}
	}
	share := func(i int, mods []openflow.FlowMod) protocol.MsgUpdate {
		sig := scheme.SignShare(shares[i], openflow.CanonicalUpdateBytes(id, 0, mods))
		return protocol.MsgUpdate{
			UpdateID: id, Mods: mods, From: members[i],
			ShareIndex: shares[i].Index, Share: scheme.Params.PointBytes(sig.Point),
		}
	}
	agg.HandleMessage("c2", share(1, rule("byz/blackhole")))
	agg.HandleMessage("c3", share(2, rule("s2")))
	agg.HandleMessage("c4", share(3, rule("s2")))
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(f.relayed) != 1 {
		t.Fatalf("aggregator relayed %d aggregates, want 1", len(f.relayed))
	}
	out := f.relayed[0]
	if got := out.Mods[0].Rule.Action.NextHop; got != "s2" {
		t.Fatalf("relayed aggregate carries next hop %q, want the honest s2", got)
	}
	pt, err := scheme.Params.ParsePoint(out.Signature)
	if err != nil || !scheme.Verify(gk.PK, openflow.CanonicalUpdateBytes(id, 0, out.Mods), bls.Signature{Point: pt}) {
		t.Fatalf("relayed aggregate does not verify under the group key (parse err %v)", err)
	}
}

// TestAggregatorPoolsBounded floods the aggregator with single shares
// under fresh update ids. From a node that is not a member they open
// nothing; from a member the map stays within its budget, an update whose
// first share the flood displaced still completes from the shares that
// arrive afterwards, and completed updates retire each other.
func TestAggregatorPoolsBounded(t *testing.T) {
	// maxAggPending, spelled out so that the test compiles, and fails, on
	// a checkout from before the bound existed.
	const maxAggPending = 512
	f := newAggFixture(t, false)
	share := func(origin string, seq uint64, index uint32) protocol.MsgUpdate {
		return protocol.MsgUpdate{
			UpdateID:   openflow.MsgID{Origin: origin, Seq: seq},
			Mods:       []openflow.FlowMod{{Op: openflow.FlowAdd, Switch: "s1", Rule: openflow.Rule{Priority: 10, Match: openflow.Match{Src: openflow.Wildcard, Dst: "h2"}}}},
			ShareIndex: index,
		}
	}
	for i := uint64(1); i <= 5000; i++ {
		f.agg.HandleMessage("stranger", share("junk", i, 4))
	}
	if got := len(f.agg.aggPending); got != 0 {
		t.Fatalf("5000 shares from a node that is not a member opened %d entries", got)
	}

	f.agg.HandleMessage("c2", share("e", 1, 2))
	for i := uint64(1); i <= 5000; i++ {
		f.agg.HandleMessage("c4", share("junk", i, 4))
	}
	if got := len(f.agg.aggPending); got > maxAggPending {
		t.Fatalf("5000 junk shares from a member grew the map to %d entries, budget is %d", got, maxAggPending)
	}
	f.agg.HandleMessage("c2", share("e", 1, 2))
	f.agg.HandleMessage("c3", share("e", 1, 3))
	if _, err := f.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(f.relayed) != 1 {
		t.Fatalf("honest quorum after the flood relayed %d aggregates, want 1", len(f.relayed))
	}

	for i := uint64(2); i <= 2000; i++ {
		f.agg.HandleMessage("c2", share("e", i, 2))
		f.agg.HandleMessage("c3", share("e", i, 3))
	}
	if _, err := f.sim.Run(); err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, col := range f.agg.aggPending {
		if col.done {
			done++
		}
	}
	if len(f.relayed) != 2000 || done > maxAggPending || len(f.agg.aggPending) > 2*maxAggPending {
		t.Fatalf("2000 honest updates: relayed %d, kept %d done entries of %d (budget %d per class)",
			len(f.relayed), done, len(f.agg.aggPending), maxAggPending)
	}
}

func TestProtocolStrings(t *testing.T) {
	if ProtoCentralized.String() != "centralized" ||
		ProtoCrash.String() != "crash-tolerant" ||
		ProtoCicero.String() != "cicero" {
		t.Fatal("bad protocol names")
	}
}
