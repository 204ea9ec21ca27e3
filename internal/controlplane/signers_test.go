package controlplane

import (
	"crypto/rand"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"cicero/internal/fabric"
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

// TestDesignatedSignersRotate: for every update exactly 2f+1 members are
// designated, and over many updates each member is designated for
// (2f+1)/n of them. Plans number their updates 0, 1, 2, …, so a rule on
// Seq alone would designate the same members for every plan's first update.
func TestDesignatedSignersRotate(t *testing.T) {
	for _, n := range []int{4, 5, 7, 10} {
		members := make([]pki.Identity, n)
		for i := range members {
			members[i] = pki.Identity(fmt.Sprintf("c%d", i+1))
		}
		ctls := make([]*Controller, n)
		for i, id := range members {
			ctls[i] = &Controller{cfg: Config{ID: id, Protocol: ProtoCicero}, members: members}
		}
		signers := 2*((n-1)/3) + 1
		count := make([]int, n)
		updates := 0
		for ev := uint64(1); ev <= 2000; ev++ {
			for seq := uint64(0); seq < 3; seq++ {
				id := openflow.MsgID{Origin: updateOrigin(openflow.MsgID{Origin: "d0-p0-tor1", Seq: ev}, 0), Seq: seq}
				got := 0
				for i, c := range ctls {
					if c.designated(id) {
						got++
						count[i]++
					}
				}
				if got != signers {
					t.Fatalf("n=%d: %d members designated for %s, want %d", n, got, id, signers)
				}
				updates++
			}
		}
		want := float64(signers) / float64(n)
		for i, k := range count {
			if share := float64(k) / float64(updates); math.Abs(share/want-1) > 0.05 {
				t.Errorf("n=%d: %s designated for %.3f of %d updates, want %.3f ± 5 %%", n, members[i], share, updates, want)
			}
		}
	}
}

// signerFixture is a four-member control plane over the simulator whose
// switches s1–s3 acknowledge every update they receive, or none.
type signerFixture struct {
	sim   *simnet.Simulator
	net   *simnet.Network
	ctls  []*Controller
	stubs map[string]*stubSwitch
}

const signerTimeout = 15 * time.Millisecond

func newSignerFixture(t *testing.T, mute bool) *signerFixture {
	t.Helper()
	sim := simnet.NewSimulator(1)
	f := &signerFixture{sim: sim, net: simnet.NewNetwork(sim, 200*time.Microsecond), stubs: make(map[string]*stubSwitch)}
	dir := pki.NewDirectory()
	scheme := bls.NewScheme(pairing.Fast254())
	gk, shares, err := dkg.Run(scheme, rand.Reader, CiceroQuorum(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	members := []pki.Identity{"c1", "c2", "c3", "c4"}
	for _, id := range []string{"s1", "s2", "s3"} {
		keys, _ := pki.NewKeyPair(rand.Reader, pki.Identity(id))
		dir.MustRegister(keys)
		f.stubs[id] = &stubSwitch{id: id, net: f.net, link: pki.NewLink(keys, dir), members: members, mute: mute}
		f.net.Register(simnet.NodeID(id), f.stubs[id])
	}
	for i, id := range members {
		keys, _ := pki.NewKeyPair(rand.Reader, id)
		dir.MustRegister(keys)
		c, err := New(Config{
			ID: id, Members: members, Net: f.net, Keys: keys, Directory: dir,
			Protocol: ProtoCicero, CryptoReal: true, Scheme: scheme, GroupKey: gk, Share: shares[i],
			App: &routing.ShortestPath{Graph: lineGraph(t)}, Sched: scheduler.ReversePath{},
			Switches: []string{"s1", "s2", "s3"}, ViewChangeTimeout: signerTimeout,
		})
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		f.ctls = append(f.ctls, c)
	}
	return f
}

// order has the group order one flow's event; the switches' answers, if
// any, release the rest of its plan.
func (f *signerFixture) order(seq uint64) {
	f.ctls[0].receiveEvent(protocol.Event{
		ID:   openflow.MsgID{Origin: "s1", Seq: seq},
		Kind: protocol.EventFlowRequest,
		Src:  "h1", Dst: "h2",
	})
}

// runUntil advances the simulator to at.
func (f *signerFixture) runUntil(t *testing.T, at time.Duration) {
	t.Helper()
	if _, err := f.sim.RunUntil(at); err != nil {
		t.Fatal(err)
	}
}

// late returns the member not designated for id.
func (f *signerFixture) late(t *testing.T, id openflow.MsgID) *Controller {
	t.Helper()
	for _, c := range f.ctls {
		if !c.designated(id) {
			return c
		}
	}
	t.Fatalf("every member is designated for %s", id)
	return nil
}

// from lists who sent the updates a switch received for id.
func from(updates []protocol.MsgUpdate, id openflow.MsgID) []pki.Identity {
	var out []pki.Identity
	for _, u := range updates {
		if u.UpdateID == id {
			out = append(out, u.From)
		}
	}
	return out
}

// TestAckBeforeTimerSendsNoLateShare: each switch acknowledges on the first
// share, long before one view-change timeout. Every update reaches its
// switch from its three designated members only; when the retry timers
// fire they find every update acknowledged, send nothing, and arm nothing
// more, so the simulation quiesces.
func TestAckBeforeTimerSendsNoLateShare(t *testing.T) {
	f := newSignerFixture(t, false)
	f.order(1)
	if _, err := f.sim.Run(); err != nil {
		t.Fatal(err)
	}
	var signed uint64
	for _, c := range f.ctls {
		signed += c.UpdatesSigned
		if c.UpdatesRetransmitted != 0 || c.Unacked() != 0 {
			t.Errorf("%s retransmitted %d updates and awaits %d acks", c.ID(), c.UpdatesRetransmitted, c.Unacked())
		}
	}
	for name, st := range f.stubs {
		if len(st.updates) != 3 {
			t.Fatalf("%s received %d updates, want 3: one from each designated member", name, len(st.updates))
		}
		id := st.updates[0].UpdateID
		for _, who := range from(st.updates, id) {
			if who == f.late(t, id).ID() {
				t.Errorf("%s received %s from %s, which was not designated", name, id, who)
			}
		}
	}
	if signed != 9 {
		t.Errorf("%d signatures for the flow's 3 updates, want 9", signed)
	}
}

// TestLateReleaseSignsOnlyInItsPhase: no switch answers, so the member not
// designated for s3's update signs it one view-change timeout T after the
// release, and every member retransmits it 2T, 4T, … after the release
// until the cap, then stops, so the simulation quiesces — unless the
// controller has moved to another membership phase by then, in which case
// it sends nothing more.
func TestLateReleaseSignsOnlyInItsPhase(t *testing.T) {
	for _, moved := range []bool{false, true} {
		f := newSignerFixture(t, true)
		f.order(1)
		f.runUntil(t, signerTimeout/2)
		if len(f.stubs["s3"].updates) != 3 {
			t.Fatalf("s3 received %d shares at release, want 3", len(f.stubs["s3"].updates))
		}
		id := f.stubs["s3"].updates[0].UpdateID
		late := f.late(t, id)
		if moved {
			late.phase++ // as a completed membership change leaves it
		}
		f.runUntil(t, 3*signerTimeout/2)
		got := from(f.stubs["s3"].updates, id)
		want := []pki.Identity{late.ID()} // the one late share
		if moved {
			want = nil
		}
		if !slices.Equal(got[3:], want) || late.UpdatesSigned != uint64(len(want)) {
			t.Errorf("phase moved=%v: s3 received %s from %v, and %s counts %d signed", moved, id, got, late.ID(), late.UpdatesSigned)
		}
		if _, err := f.sim.Run(); err != nil {
			t.Fatal(err)
		}
		got = from(f.stubs["s3"].updates, id)[3+len(want):]
		for _, c := range f.ctls {
			n := uint64(fabric.Retries)
			if c == late && moved {
				n = 0
			}
			if sent := uint64(len(slices.DeleteFunc(slices.Clone(got), func(who pki.Identity) bool { return who != c.ID() }))); sent != n || c.UpdatesRetransmitted != n {
				t.Errorf("phase moved=%v: %s retransmitted %s %d times (counts %d), want %d", moved, c.ID(), id, sent, c.UpdatesRetransmitted, n)
			}
		}
		if end := f.sim.Now(); end > signerTimeout<<fabric.Retries+signerTimeout {
			t.Errorf("phase moved=%v: the last retransmission ran at %v, past the cap", moved, end)
		}
	}
}
