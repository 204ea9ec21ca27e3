package dataplane

import (
	"crypto/rand"
	"math/big"
	"testing"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/pki"
)

// harness wires one switch to a simulator with recording controllers.
type harness struct {
	sim      *simnet.Simulator
	net      *simnet.Network
	sw       *Switch
	scheme   *bls.Scheme
	gk       *bls.GroupKey
	shares   []bls.KeyShare
	dir      *pki.Directory
	ctlKeys  map[pki.Identity]*pki.KeyPair
	received map[pki.Identity][]simnet.Message
}

// controllerIDs are the stub control-plane members.
var controllerIDs = []pki.Identity{"c1", "c2", "c3", "c4"}

// newHarness builds a switch in the given mode (quorum 2 of 4).
func newHarness(t *testing.T, mode Mode, cryptoReal bool) *harness {
	t.Helper()
	h := &harness{
		sim:      simnet.NewSimulator(1),
		dir:      pki.NewDirectory(),
		ctlKeys:  make(map[pki.Identity]*pki.KeyPair),
		received: make(map[pki.Identity][]simnet.Message),
	}
	h.net = simnet.NewNetwork(h.sim, 100*time.Microsecond)
	dir := h.dir
	keys, err := pki.NewKeyPair(rand.Reader, "sw1")
	if err != nil {
		t.Fatal(err)
	}
	dir.MustRegister(keys)
	for _, id := range controllerIDs {
		kp, err := pki.NewKeyPair(rand.Reader, id)
		if err != nil {
			t.Fatal(err)
		}
		dir.MustRegister(kp)
		h.ctlKeys[id] = kp
	}
	h.scheme = bls.NewScheme(pairing.Fast254())
	gk, shares, err := h.scheme.Deal(rand.Reader, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.gk, h.shares = gk, shares
	for _, id := range controllerIDs {
		id := id
		h.net.Register(simnet.NodeID(id), fabric.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) {
			h.received[id] = append(h.received[id], msg)
		}))
	}
	sw, err := New(Config{
		ID:          "sw1",
		Net:         h.net,
		Cost:        protocol.Calibrated(),
		Mode:        mode,
		Keys:        keys,
		Directory:   dir,
		Scheme:      h.scheme,
		GroupKey:    gk,
		Quorum:      2,
		Controllers: controllerIDs,
		CryptoReal:  cryptoReal,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.sw = sw
	return h
}

// mod returns a routing rule for dst.
func mod(dst string) openflow.FlowMod {
	return openflow.FlowMod{Op: openflow.FlowAdd, Switch: "sw1", Rule: openflow.Rule{
		Priority: 10,
		Match:    openflow.Match{Src: openflow.Wildcard, Dst: dst},
		Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "next"},
	}}
}

// shareMsg builds a genuine share message for the harness key.
func (h *harness) shareMsg(t *testing.T, shareIdx int, id openflow.MsgID, m openflow.FlowMod) protocol.MsgUpdate {
	t.Helper()
	canonical := openflow.CanonicalUpdateBytes(id, 0, []openflow.FlowMod{m})
	s := h.scheme.SignShare(h.shares[shareIdx], canonical)
	return protocol.MsgUpdate{
		UpdateID:   id,
		Mods:       []openflow.FlowMod{m},
		From:       controllerIDs[shareIdx],
		ShareIndex: h.shares[shareIdx].Index,
		Share:      h.scheme.Params.PointBytes(s.Point),
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	sim := simnet.NewSimulator(1)
	net := simnet.NewNetwork(sim, time.Millisecond)
	keys, _ := pki.NewKeyPair(rand.Reader, "x")
	dir := pki.NewDirectory()
	if _, err := New(Config{ID: "x", Net: net, Keys: keys, Directory: dir, Mode: ModeThreshold}); err == nil {
		t.Error("threshold mode without key material accepted")
	}
}

func TestUnsignedModeFirstCopyWins(t *testing.T) {
	h := newHarness(t, ModeUnsigned, false)
	id := openflow.MsgID{Origin: "e", Seq: 1}
	m := mod("h7")
	h.sw.HandleMessage("c1", protocol.MsgUpdate{UpdateID: id, Mods: []openflow.FlowMod{m}})
	h.sw.HandleMessage("c2", protocol.MsgUpdate{UpdateID: id, Mods: []openflow.FlowMod{m}})
	if h.sw.UpdatesApplied != 1 {
		t.Fatalf("applied %d, want 1 (dedup)", h.sw.UpdatesApplied)
	}
	if _, ok := h.sw.Lookup("x", "h7"); !ok {
		t.Fatal("rule not installed")
	}
}

func TestThresholdQuorumCountingFastCrypto(t *testing.T) {
	h := newHarness(t, ModeThreshold, false)
	id := openflow.MsgID{Origin: "e", Seq: 1}
	m := mod("h8")
	h.sw.HandleMessage("c1", protocol.MsgUpdate{UpdateID: id, Mods: []openflow.FlowMod{m}, ShareIndex: 1})
	if h.sw.UpdatesApplied != 0 {
		t.Fatal("applied below quorum")
	}
	// Duplicate share index does not advance the quorum.
	h.sw.HandleMessage("c1", protocol.MsgUpdate{UpdateID: id, Mods: []openflow.FlowMod{m}, ShareIndex: 1})
	if h.sw.UpdatesApplied != 0 {
		t.Fatal("duplicate share advanced the quorum")
	}
	h.sw.HandleMessage("c2", protocol.MsgUpdate{UpdateID: id, Mods: []openflow.FlowMod{m}, ShareIndex: 2})
	if h.sw.UpdatesApplied != 1 {
		t.Fatalf("applied %d after quorum, want 1", h.sw.UpdatesApplied)
	}
}

func TestThresholdRealCryptoAppliesAndAcks(t *testing.T) {
	h := newHarness(t, ModeThreshold, true)
	id := openflow.MsgID{Origin: "e", Seq: 1}
	m := mod("h9")
	h.sw.HandleMessage("c1", h.shareMsg(t, 0, id, m))
	h.sw.HandleMessage("c2", h.shareMsg(t, 1, id, m))
	if _, err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if h.sw.UpdatesApplied != 1 {
		t.Fatalf("applied %d, want 1", h.sw.UpdatesApplied)
	}
	// Every controller received an ack sealed to it and to nobody else.
	acks := make(map[pki.Identity]protocol.MsgAck)
	for _, ctl := range controllerIDs {
		for _, msg := range h.received[ctl] {
			if m, ok := msg.(protocol.MsgAck); ok {
				acks[ctl] = m
			}
		}
		m, ok := acks[ctl]
		if !ok {
			t.Fatalf("controller %s got no ack", ctl)
		}
		payload, err := pki.NewLink(h.ctlKeys[ctl], h.dir).Open(m.Env)
		if err != nil {
			t.Fatalf("controller %s cannot open its ack: %v", ctl, err)
		}
		if ack, err := protocol.DecodeAck(payload); err != nil || ack.UpdateID != id || !ack.Applied {
			t.Fatalf("controller %s got ack %+v (err %v)", ctl, ack, err)
		}
	}
	if _, err := pki.NewLink(h.ctlKeys["c2"], h.dir).Open(acks["c1"].Env); err == nil {
		t.Fatal("c2 opened the ack sealed to c1")
	}
}

// TestForgedContentFirstDoesNotPinUpdate: a Byzantine controller races a
// forged rule to the switch under a real update id. Pools are keyed by the
// signed bytes, so its share sits alone and the honest shares that follow
// still install the honest rule. (A pool keyed by update id kept the first
// arrival's mods and the honest shares never verified against them.)
func TestForgedContentFirstDoesNotPinUpdate(t *testing.T) {
	h := newHarness(t, ModeThreshold, true)
	id := openflow.MsgID{Origin: "e", Seq: 1}
	forged := mod("hv")
	forged.Rule.Action.NextHop = "byz/blackhole"
	h.sw.HandleMessage("c1", h.shareMsg(t, 0, id, forged))
	for i := 1; i <= 3; i++ {
		h.sw.HandleMessage(simnet.NodeID(controllerIDs[i]), h.shareMsg(t, i, id, mod("hv")))
	}
	if h.sw.UpdatesApplied != 1 {
		t.Fatalf("honest update not applied: applied=%d rejected=%d pools=%d",
			h.sw.UpdatesApplied, h.sw.UpdatesRejected, len(h.sw.pools))
	}
	if rule, ok := h.sw.Lookup("x", "hv"); !ok || rule.Action.NextHop != "next" {
		t.Fatalf("installed rule = %v (%v), want the honest next hop", rule, ok)
	}
}

// TestMauledShareLeavesPoolPending: a Byzantine controller adds T, a
// point of the cofactor subgroup, to its genuine share. The pairing cannot
// see T, so the pool's pairing check passes on σ + λ·T; what refuses it is
// the subgroup walk — of the combination since shares are parsed as curve
// points, of each share before. Either way the pool of one honest and one
// mauled share is rejected once and stays pending, and the next honest
// share completes it with the honest rule.
func TestMauledShareLeavesPoolPending(t *testing.T) {
	h := newHarness(t, ModeThreshold, true)
	p := h.scheme.Params
	id := openflow.MsgID{Origin: "e", Seq: 1}
	m := mod("hm")
	// T = c − c_G1 for the hash candidate c of some message, its G1 part
	// being (h⁻¹ mod r)·(h·c) = (h⁻¹ mod r)·HashToG1.
	x := []byte("cofactor component")
	hInv := new(big.Int).ModInverse(p.H, p.R)
	cofactor := p.Add(p.HashToCurve(x), p.Neg(p.ScalarMul(p.HashToG1(x), hInv)))
	mauled := h.shareMsg(t, 1, id, m)
	sigma, err := p.ParsePoint(mauled.Share)
	if err != nil {
		t.Fatal(err)
	}
	mauled.Share = p.PointBytes(p.Add(sigma, cofactor))

	h.sw.HandleMessage("c1", h.shareMsg(t, 0, id, m))
	h.sw.HandleMessage("c2", mauled)
	if h.sw.UpdatesApplied != 0 || h.sw.UpdatesRejected != 1 {
		t.Fatalf("after the mauled share: applied=%d rejected=%d, want 0 and 1", h.sw.UpdatesApplied, h.sw.UpdatesRejected)
	}
	h.sw.HandleMessage("c3", h.shareMsg(t, 2, id, m))
	if h.sw.UpdatesApplied != 1 || h.sw.UpdatesRejected != 1 {
		t.Fatalf("after a second honest share: applied=%d rejected=%d, want 1 and 1", h.sw.UpdatesApplied, h.sw.UpdatesRejected)
	}
	if rule, ok := h.sw.Lookup("x", "hm"); !ok || rule.Action.NextHop != "next" {
		t.Fatalf("installed rule = %v (%v), want the honest next hop", rule, ok)
	}
}

// TestJunkUpdateIDsBounded floods the switch with single shares under
// fresh update ids (opening a pool takes no key). The pool map must stay
// within its budget, and an update whose first share the flood displaced
// still completes from the shares that arrive afterwards.
func TestJunkUpdateIDsBounded(t *testing.T) {
	h := newHarness(t, ModeThreshold, false)
	id := openflow.MsgID{Origin: "e", Seq: 1}
	m := mod("hj")
	h.sw.HandleMessage("c1", protocol.MsgUpdate{UpdateID: id, Mods: []openflow.FlowMod{m}, ShareIndex: 1})
	for i := 0; i < 5000; i++ {
		h.sw.HandleMessage("c4", protocol.MsgUpdate{
			UpdateID:   openflow.MsgID{Origin: "junk", Seq: uint64(i + 1)},
			Mods:       []openflow.FlowMod{mod("hj")},
			ShareIndex: 4,
		})
	}
	if got := len(h.sw.pools); got > maxPendingBatches {
		t.Fatalf("pool map grew to %d entries, budget is %d", got, maxPendingBatches)
	}
	h.sw.HandleMessage("c2", protocol.MsgUpdate{UpdateID: id, Mods: []openflow.FlowMod{m}, ShareIndex: 2})
	h.sw.HandleMessage("c3", protocol.MsgUpdate{UpdateID: id, Mods: []openflow.FlowMod{m}, ShareIndex: 3})
	if h.sw.UpdatesApplied != 1 {
		t.Fatalf("honest quorum after the flood did not complete (applied=%d)", h.sw.UpdatesApplied)
	}
	if got := len(h.sw.pools); got > maxPendingBatches {
		t.Fatalf("pool map at %d entries after the verdict, budget is %d", got, maxPendingBatches)
	}
}

func TestThresholdZeroShareIndexIgnored(t *testing.T) {
	h := newHarness(t, ModeThreshold, false)
	id := openflow.MsgID{Origin: "e", Seq: 1}
	m := mod("hz")
	for i := 0; i < 4; i++ {
		h.sw.HandleMessage("c1", protocol.MsgUpdate{UpdateID: id, Mods: []openflow.FlowMod{m}, ShareIndex: 0})
	}
	if h.sw.UpdatesApplied != 0 {
		t.Fatal("malformed shares reached quorum")
	}
}

func TestAggregatedModeRejectsRawShares(t *testing.T) {
	h := newHarness(t, ModeAggregated, false)
	id := openflow.MsgID{Origin: "e", Seq: 1}
	m := mod("ha")
	h.sw.HandleMessage("c1", protocol.MsgUpdate{UpdateID: id, Mods: []openflow.FlowMod{m}, ShareIndex: 1})
	if h.sw.UpdatesRejected != 1 || h.sw.UpdatesApplied != 0 {
		t.Fatalf("raw share in aggregated mode: applied=%d rejected=%d",
			h.sw.UpdatesApplied, h.sw.UpdatesRejected)
	}
}

func TestAggregatedModeVerifiesSignature(t *testing.T) {
	h := newHarness(t, ModeAggregated, true)
	id := openflow.MsgID{Origin: "e", Seq: 2}
	m := mod("hb")
	canonical := openflow.CanonicalUpdateBytes(id, 0, []openflow.FlowMod{m})
	sig, err := h.scheme.Combine(h.gk, []bls.SignatureShare{
		h.scheme.SignShare(h.shares[0], canonical),
		h.scheme.SignShare(h.shares[1], canonical),
	})
	if err != nil {
		t.Fatal(err)
	}
	h.sw.HandleMessage("c1", protocol.MsgAggUpdate{
		UpdateID: id, Mods: []openflow.FlowMod{m},
		Signature: h.scheme.Params.PointBytes(sig.Point),
	})
	if h.sw.UpdatesApplied != 1 {
		t.Fatal("valid aggregate not applied")
	}
	// A forged aggregate is rejected.
	id2 := openflow.MsgID{Origin: "e", Seq: 3}
	h.sw.HandleMessage("c1", protocol.MsgAggUpdate{
		UpdateID: id2, Mods: []openflow.FlowMod{mod("hc")},
		Signature: h.scheme.Params.PointBytes(h.scheme.Params.G),
	})
	if h.sw.UpdatesApplied != 1 || h.sw.UpdatesRejected == 0 {
		t.Fatal("forged aggregate accepted")
	}
}

func TestPacketArrivalDedupsEvents(t *testing.T) {
	h := newHarness(t, ModeThreshold, false)
	if _, ok := h.sw.PacketArrival("a", "b"); ok {
		t.Fatal("empty table matched")
	}
	// Second miss for the same pair must not emit a second event.
	h.sw.PacketArrival("a", "b")
	if h.sw.EventsGenerated != 1 {
		t.Fatalf("generated %d events, want 1", h.sw.EventsGenerated)
	}
	if _, err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Every controller got exactly one event message.
	for _, id := range controllerIDs {
		events := 0
		for _, msg := range h.received[id] {
			if _, ok := msg.(protocol.MsgEvent); ok {
				events++
			}
		}
		if events != 1 {
			t.Fatalf("controller %s got %d events, want 1", id, events)
		}
	}
}

func TestPacketArrivalHitReturnsRule(t *testing.T) {
	h := newHarness(t, ModeUnsigned, false)
	h.sw.HandleMessage("c1", protocol.MsgUpdate{
		UpdateID: openflow.MsgID{Origin: "e", Seq: 1},
		Mods:     []openflow.FlowMod{mod("hd")},
	})
	rule, ok := h.sw.PacketArrival("x", "hd")
	if !ok || rule.Action.NextHop != "next" {
		t.Fatalf("hit = %v (%v)", rule, ok)
	}
	if h.sw.EventsGenerated != 0 {
		t.Fatal("hit generated an event")
	}
}

func TestSubscribeImmediateWhenRuleExists(t *testing.T) {
	h := newHarness(t, ModeUnsigned, false)
	h.sw.HandleMessage("c1", protocol.MsgUpdate{
		UpdateID: openflow.MsgID{Origin: "e", Seq: 1},
		Mods:     []openflow.FlowMod{mod("he")},
	})
	fired := false
	h.sw.Subscribe("x", "he", func(simnet.Time) { fired = true })
	if !fired {
		t.Fatal("subscription on existing rule did not fire immediately")
	}
}

func TestEventsToAggregatorOnly(t *testing.T) {
	h := newHarness(t, ModeAggregated, false)
	h.sw.Bootstrap(controllerIDs, "c1", 2)
	h.sw.PacketArrival("a", "b")
	if _, err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range controllerIDs {
		events := 0
		for _, msg := range h.received[id] {
			if _, ok := msg.(protocol.MsgEvent); ok {
				events++
			}
		}
		want := 0
		if id == "c1" {
			want = 1
		}
		if events != want {
			t.Fatalf("controller %s got %d events, want %d", id, events, want)
		}
	}
}

func TestConfigUpdatesMembershipAndQuorum(t *testing.T) {
	h := newHarness(t, ModeThreshold, false)
	h.sw.HandleMessage("c1", protocol.MsgConfig{
		Phase:   1,
		Quorum:  3,
		Members: []pki.Identity{"c1", "c2", "c3", "c4", "c5"},
	})
	// Quorum is now 3: two shares must not apply.
	id := openflow.MsgID{Origin: "e", Seq: 1}
	m := mod("hf")
	h.sw.HandleMessage("c1", protocol.MsgUpdate{UpdateID: id, Phase: 1, Mods: []openflow.FlowMod{m}, ShareIndex: 1})
	h.sw.HandleMessage("c2", protocol.MsgUpdate{UpdateID: id, Phase: 1, Mods: []openflow.FlowMod{m}, ShareIndex: 2})
	if h.sw.UpdatesApplied != 0 {
		t.Fatal("applied below the new quorum")
	}
	h.sw.HandleMessage("c3", protocol.MsgUpdate{UpdateID: id, Phase: 1, Mods: []openflow.FlowMod{m}, ShareIndex: 3})
	if h.sw.UpdatesApplied != 1 {
		t.Fatal("not applied at the new quorum")
	}
	// Stale configs are ignored.
	h.sw.HandleMessage("c1", protocol.MsgConfig{Phase: 1, Quorum: 9})
	id2 := openflow.MsgID{Origin: "e", Seq: 2}
	m2 := mod("hg")
	for i := 1; i <= 3; i++ {
		h.sw.HandleMessage("c1", protocol.MsgUpdate{UpdateID: id2, Phase: 1, Mods: []openflow.FlowMod{m2}, ShareIndex: uint32(i)})
	}
	if h.sw.UpdatesApplied != 2 {
		t.Fatal("stale config changed the quorum")
	}
}

func TestPhaseSeparatesShareBuckets(t *testing.T) {
	h := newHarness(t, ModeThreshold, false)
	id := openflow.MsgID{Origin: "e", Seq: 1}
	m := mod("hh")
	h.sw.HandleMessage("c1", protocol.MsgUpdate{UpdateID: id, Phase: 0, Mods: []openflow.FlowMod{m}, ShareIndex: 1})
	h.sw.HandleMessage("c2", protocol.MsgUpdate{UpdateID: id, Phase: 1, Mods: []openflow.FlowMod{m}, ShareIndex: 2})
	if h.sw.UpdatesApplied != 0 {
		t.Fatal("shares from different phases combined")
	}
}
