package controlplane

import (
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"cicero/internal/bft"
	"cicero/internal/fabric"
	"cicero/internal/protocol"
	"cicero/internal/routing"
	"cicero/internal/scheduler"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/dkg"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/pki"
)

// reshareFixture is a four-member control plane about to admit "c5", with
// the honest reshare traffic of that change (phase 1) dealt up front:
// deals[i] and subs[i][r] are dealer i+1's broadcast and its sub-share
// for new index r+1.
type reshareFixture struct {
	ctls  []*Controller
	deals []*dkg.ReshareDeal
	subs  [][]dkg.SubShare
}

func (f *reshareFixture) dealMsg(dealer int) protocol.MsgReshareDeal {
	return protocol.MsgReshareDeal{Phase: 1, Deal: f.deals[dealer-1]}
}

func (f *reshareFixture) subMsg(dealer, recipient int) protocol.MsgReshareSub {
	return protocol.MsgReshareSub{Phase: 1, Sub: f.subs[dealer-1][recipient-1]}
}

var admitC5 = protocol.MembershipChange{Op: protocol.MemberAdd, Controller: "c5"}

func newReshareFixture(t *testing.T) *reshareFixture {
	t.Helper()
	net := simnet.NewNetwork(simnet.NewSimulator(1), time.Millisecond)
	dir := pki.NewDirectory()
	scheme := bls.NewScheme(pairing.Fast254())
	gk, shares, err := dkg.Run(scheme, rand.Reader, CiceroQuorum(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	members := []pki.Identity{"c1", "c2", "c3", "c4"}
	f := &reshareFixture{}
	for i, id := range members {
		keys, _ := pki.NewKeyPair(rand.Reader, id)
		dir.MustRegister(keys)
		c, err := New(Config{
			ID: id, Members: members, Net: net, Keys: keys, Directory: dir,
			Protocol: ProtoCicero, Scheme: scheme, GroupKey: gk, Share: shares[i],
			App: &routing.ShortestPath{Graph: lineGraph(t)}, Sched: scheduler.ReversePath{},
			Bootstrap: i == 0,
		})
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		f.ctls = append(f.ctls, c)
	}
	dealerSet := []uint32{1, 2}
	for _, dealer := range dealerSet {
		deal, subs, err := dkg.ReshareDealer(scheme, rand.Reader, shares[dealer-1], dealerSet, CiceroQuorum(5), []uint32{1, 2, 3, 4, 5})
		if err != nil {
			t.Fatalf("ReshareDealer(%d): %v", dealer, err)
		}
		f.deals = append(f.deals, deal)
		f.subs = append(f.subs, subs)
	}
	return f
}

// TestReshareSubWithoutValueIsIgnored is the controller half of the
// reshare-sub crash: during a membership change, a sub-share whose Value
// is nil reached dkg.verifySubShare and dereferenced it — one message
// took a controller process down, because no livenet loop recovers. The
// wire codec refuses to decode such a frame now; the handler must survive
// it too, since the simulator passes Go values.
func TestReshareSubWithoutValueIsIgnored(t *testing.T) {
	f := newReshareFixture(t)
	c3 := f.ctls[2]
	c3.onMembershipDelivered(admitC5)
	if c3.change == nil || c3.change.receiver == nil {
		t.Fatal("c3 did not enter the membership change")
	}
	c3.HandleMessage("c1", f.dealMsg(1))
	empty := f.subMsg(1, 3)
	empty.Sub.Value = nil
	c3.HandleMessage("c1", empty) // panicked here
	if c3.change.subsGot[1] {
		t.Fatal("a sub-share without a value was recorded")
	}
	// The honest traffic after it still completes the change.
	c3.HandleMessage("c1", f.subMsg(1, 3))
	c3.HandleMessage("c2", f.dealMsg(2))
	c3.HandleMessage("c2", f.subMsg(2, 3))
	if c3.Phase() != 1 || c3.Reshares != 1 {
		t.Fatalf("c3 at phase %d after %d reshares, want 1 and 1", c3.Phase(), c3.Reshares)
	}
}

// TestEarlyReshareBuffersBounded floods a controller that has not yet
// delivered the membership change with 10,000 reshare and config messages
// for phases it has not reached, from members and strangers alike. The
// early buffers used to append every one of them, forever. They hold one
// entry per dealer or share index of the next phase; the honest deals
// that arrived in the middle of the flood still replay when the change is
// delivered.
func TestEarlyReshareBuffersBounded(t *testing.T) {
	f := newReshareFixture(t)
	c3 := f.ctls[2]
	n := len(c3.members)
	senders := []fabric.NodeID{"c1", "c2", "c4", "mallory", "c5"}
	flood := func(from, upTo int) {
		for i := from; i < upTo; i++ {
			sender := senders[i%len(senders)]
			dealer := uint32(i%7 + 1)
			if sender == "c1" || sender == "c2" {
				dealer = 3 // a member speaking for another member's index
			}
			phase := uint64(i%5 + 1) // 1 is the next phase, the rest are not
			switch i % 3 {
			case 0:
				junk := *f.deals[0]
				junk.Dealer = dealer
				c3.HandleMessage(sender, protocol.MsgReshareDeal{Phase: phase, Deal: &junk})
			case 1:
				junk := f.subs[0][2]
				junk.Dealer = dealer
				c3.HandleMessage(sender, protocol.MsgReshareSub{Phase: phase, Sub: junk})
			case 2:
				c3.HandleMessage(sender, protocol.MsgConfigShare{
					Phase: phase, ShareIndex: uint32(i % 50), Share: []byte(fmt.Sprint(i)),
				})
			}
		}
	}
	flood(0, 5000)
	c3.HandleMessage("c1", f.dealMsg(1))
	c3.HandleMessage("c1", f.subMsg(1, 3))
	c3.HandleMessage("c2", f.subMsg(2, 3)) // overtakes its deal
	c3.HandleMessage("c2", f.dealMsg(2))
	flood(5000, 10000)
	if got := len(c3.early.deals); got > n {
		t.Errorf("%d early deals held, membership is %d", got, n)
	}
	if got := len(c3.early.subs); got > n {
		t.Errorf("%d early sub-shares held, membership is %d", got, n)
	}
	if got := len(c3.earlyConfig); got > n+1 {
		t.Errorf("%d early config shares held, the next membership is at most %d", got, n+1)
	}
	c3.onMembershipDelivered(admitC5)
	if c3.Phase() != 1 || c3.Reshares != 1 {
		t.Fatalf("the honest early deals did not replay: c3 at phase %d after %d reshares", c3.Phase(), c3.Reshares)
	}
	if len(c3.early.deals)+len(c3.early.subs)+len(c3.earlyConfig) != 0 {
		t.Errorf("early buffers not drained by the change: %d deals, %d subs, %d config shares",
			len(c3.early.deals), len(c3.early.subs), len(c3.earlyConfig))
	}
}

// TestPendingSubSharesBounded: inside a change, a dealer's sub-share that
// overtook its deal waits for it — one per dealer, however many arrive.
func TestPendingSubSharesBounded(t *testing.T) {
	f := newReshareFixture(t)
	c3 := f.ctls[2]
	c3.onMembershipDelivered(admitC5)
	for i := 0; i < 1000; i++ {
		c3.HandleMessage("c1", f.subMsg(1, 3))
		c3.HandleMessage("mallory", protocol.MsgReshareSub{Phase: 1, Sub: dkg.SubShare{Dealer: uint32(i + 10), Recipient: 3}})
	}
	if got := len(c3.change.pendingSubs); got != 1 {
		t.Fatalf("%d pending sub-shares, want the one from dealer 1", got)
	}
}

// TestFutureBFTBufferBounded floods a controller in the middle of a
// membership change with 10,000 atomic-broadcast frames for later phases.
// The buffer that holds them until the change completes used to take every
// one, from any sender and for any later phase, although completeChange
// replays it into the replica of the next phase, which drops every frame
// that is not its own members' at exactly that phase. A non-member's flood
// and a member's flood for a phase past the change now leave the buffer
// empty, a member's flood for the next phase stops at a fixed number of
// frames, and the change still completes over what was held.
func TestFutureBFTBufferBounded(t *testing.T) {
	f := newReshareFixture(t)
	c3 := f.ctls[2]
	c3.onMembershipDelivered(admitC5)
	if c3.change == nil {
		t.Fatal("c3 did not enter the membership change")
	}
	frame := func(phase uint64) protocol.MsgBFT {
		return protocol.MsgBFT{Phase: phase, Inner: bft.Prepare{Seq: 1}}
	}
	for i := 0; i < 10000; i++ {
		c3.HandleMessage("mallory", frame(uint64(1+i%5)))
		c3.HandleMessage("c1", frame(uint64(2+i%4)))
	}
	if got := len(c3.change.futureBFT); got != 0 {
		t.Fatalf("%d frames held from a non-member and from phases past the change, want 0", got)
	}
	for i := 0; i < 10000; i++ {
		c3.HandleMessage("c5", frame(1))
	}
	held := len(c3.change.futureBFT)
	if held == 0 || held >= 10000 {
		t.Fatalf("a member's 10,000 frames for the next phase left %d held, want some and at most a fixed number", held)
	}
	c3.HandleMessage("c1", f.dealMsg(1))
	c3.HandleMessage("c1", f.subMsg(1, 3))
	c3.HandleMessage("c2", f.dealMsg(2))
	c3.HandleMessage("c2", f.subMsg(2, 3))
	if c3.Phase() != 1 || c3.Reshares != 1 {
		t.Fatalf("c3 at phase %d after %d reshares, want 1 and 1", c3.Phase(), c3.Reshares)
	}
}
