package core

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cicero/internal/audit"
	"cicero/internal/controlplane"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/pki"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

// Crash/restart recovery on the simulator: a restarted controller must
// rebuild its ledger from peer state transfer, and a restarted switch must
// rebuild its flow table through the resync path — both with no volatile
// state surviving the crash.

// eventRecords filters a ledger down to its KindEvent records.
func eventRecords(recs []audit.Record) []audit.Record {
	var out []audit.Record
	for _, r := range recs {
		if r.Kind == audit.KindEvent {
			out = append(out, r)
		}
	}
	return out
}

func TestControllerCrashRestartRecovers(t *testing.T) {
	n := buildNet(t, Config{
		Graph:             smallPod(t),
		Protocol:          controlplane.ProtoCicero,
		Cost:              protocol.Calibrated(),
		Seed:              47,
		ViewChangeTimeout: 15 * time.Millisecond,
	})
	dom := n.Domains[0]
	slot := 2 // not the view-0 primary: the crash costs no view change
	victim := simnet.NodeID(dom.Members[slot])

	src := topology.HostName(0, 0, 0, 0)
	sw := n.Switches[topology.ToRName(0, 0, 0)]

	// Flow 1 lands while everyone is up.
	sw.Subscribe(src, topology.HostName(0, 0, 1, 0), func(simnet.Time) {})
	sw.PacketArrival(src, topology.HostName(0, 0, 1, 0))

	// Crash the controller, then drive flow 2 entirely inside its outage:
	// the victim must miss those deliveries and recover them from peers.
	n.Sim.Schedule(20*time.Millisecond, func() {
		n.Net.Crash(victim)
	})
	n.Sim.Schedule(25*time.Millisecond, func() {
		sw.PacketArrival(src, topology.HostName(0, 0, 2, 0))
	})
	var restarted *controlplane.Controller
	n.Sim.Schedule(120*time.Millisecond, func() {
		n.Net.Recover(victim)
		ctl, err := n.RestartController(0, slot)
		if err != nil {
			t.Errorf("restart controller: %v", err)
			return
		}
		restarted = ctl
	})
	// Flow 3 lands after the restart; the recovered controller takes part.
	n.Sim.Schedule(200*time.Millisecond, func() {
		sw.PacketArrival(src, topology.HostName(0, 0, 3, 0))
	})
	if _, err := n.Sim.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if restarted == nil {
		t.Fatal("controller was never restarted")
	}
	if !restarted.Recovered() {
		t.Fatal("restarted controller never completed peer state transfer")
	}
	// The rebuilt event ledger must be byte-identical to a never-crashed
	// peer's — including the events delivered during the outage.
	ref := eventRecords(dom.Controllers[0].AuditRecords())
	got := eventRecords(restarted.AuditRecords())
	if len(ref) == 0 {
		t.Fatal("reference controller delivered no events")
	}
	if len(got) != len(ref) {
		t.Fatalf("recovered ledger has %d events, peer has %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i].Subject != ref[i].Subject || !bytes.Equal(got[i].Canonical, ref[i].Canonical) {
			t.Fatalf("recovered ledger diverges at %d: %s vs %s", i, got[i].Subject, ref[i].Subject)
		}
	}
}

func TestSwitchCrashRestartResyncs(t *testing.T) {
	n := buildNet(t, Config{
		Graph:             smallPod(t),
		Protocol:          controlplane.ProtoCicero,
		Cost:              protocol.Calibrated(),
		Seed:              49,
		ViewChangeTimeout: 15 * time.Millisecond,
	})
	swID := topology.ToRName(0, 0, 0)
	victim := simnet.NodeID(swID)
	src := topology.HostName(0, 0, 0, 0)
	dst := topology.HostName(0, 0, 2, 0)

	// Install rules for one flow, then let the network quiesce.
	n.Switches[swID].PacketArrival(src, dst)
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	pre, ok := n.Switches[swID].Lookup(src, dst)
	if !ok {
		t.Fatal("flow rule was never installed")
	}

	// Crash the switch: the replacement process starts with an empty table
	// and must rebuild it from the controllers' logged updates, through the
	// ordinary quorum-authentication path.
	n.Net.Crash(victim)
	n.Net.Recover(victim)
	sw, err := n.RestartSwitch(swID)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sw.Lookup(src, dst); ok {
		t.Fatal("restarted switch still has pre-crash rules (volatile state must not survive)")
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	post, ok := sw.Lookup(src, dst)
	if !ok {
		t.Fatal("restarted switch did not resync the flow rule")
	}
	if post.Action != pre.Action || post.Priority != pre.Priority || post.Match != pre.Match {
		t.Fatalf("resynced rule differs: pre=%+v post=%+v", pre, post)
	}
	// The table object in the network map must be the replacement's.
	if n.Switches[swID] != sw {
		t.Fatal("network map still references the crashed switch instance")
	}
}

// claimSender writes id into msg's self-declared sender field, if its type
// has one. No message a handler trusts has such a field, so here this does
// nothing and a sender speaks under its fabric id alone; on a tree whose
// MsgRecoverState still carries From, the same test drives the forgery that
// field allowed.
func claimSender(msg *protocol.MsgRecoverState, id pki.Identity) {
	if f := reflect.ValueOf(msg).Elem().FieldByName("From"); f.IsValid() {
		f.SetString(string(id))
	}
}

// TestOneByzantinePeerCannotVouchRecoveryAlone: a restarted controller is
// cut off from both honest peers, and the one Byzantine member it can hear
// answers its recovery request f+1 times with a fabricated history, once in
// the name of each honest peer. f+1 matching answers are what adoption
// takes, so they must be f+1 senders: the controller stays mute and empty
// until the partitions heal, then recovers the honest history.
func TestOneByzantinePeerCannotVouchRecoveryAlone(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	src, dst := topology.HostName(0, 0, 0, 0), topology.HostName(0, 0, 2, 0)
	if _, err := n.RunFlows([]workload.Flow{{ID: 1, Src: src, Dst: dst, SizeKB: 32}}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	honest := dom.Members[:2]
	const victimSlot, forgerSlot = 2, 3
	victim, forger := simnet.NodeID(dom.Members[victimSlot]), simnet.NodeID(dom.Members[forgerSlot])

	n.Net.Crash(victim)
	n.Net.Recover(victim)
	for _, h := range honest {
		n.Net.Partition(victim, simnet.NodeID(h))
	}
	n.Net.Register(forger, evilNode{}) // the forger answers nothing honestly
	restarted, err := n.RestartController(0, victimSlot)
	if err != nil {
		t.Fatal(err)
	}
	forgedEvent := protocol.Event{
		ID:   openflow.MsgID{Origin: "forged", Seq: 1},
		Kind: protocol.EventFlowRequest,
		Src:  dst, Dst: src,
	}
	for _, h := range honest {
		state := protocol.MsgRecoverState{View: 7, LastDelivered: 99, Events: [][]byte{forgedEvent.Encode()}}
		claimSender(&state, h)
		n.Net.Send(forger, victim, state, 256)
	}
	holdsForgedEvent := func() bool {
		for _, r := range restarted.AuditRecords() {
			if r.Subject == forgedEvent.ID.String() {
				return true
			}
		}
		return false
	}
	if _, err := n.Sim.RunUntil(n.Sim.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	view, delivered := restarted.BroadcastCoords()
	if !restarted.Recovering() || holdsForgedEvent() || view != 0 || delivered != 0 || restarted.UpdatesSigned != 0 {
		t.Fatalf("one peer's f+1 answers were adopted: recovering=%v forgedEventInLedger=%v view=%d lastDelivered=%d updatesSigned=%d",
			restarted.Recovering(), holdsForgedEvent(), view, delivered, restarted.UpdatesSigned)
	}

	for _, h := range honest {
		n.Net.Heal(victim, simnet.NodeID(h))
	}
	if _, err := n.Sim.RunUntil(n.Sim.Now() + 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if !restarted.Recovered() || holdsForgedEvent() {
		t.Fatalf("after healing: recovered=%v forgedEventInLedger=%v", restarted.Recovered(), holdsForgedEvent())
	}
	ref, got := eventRecords(dom.Controllers[0].AuditRecords()), eventRecords(restarted.AuditRecords())
	if len(ref) == 0 || len(got) != len(ref) {
		t.Fatalf("recovered ledger has %d events, an honest peer has %d", len(got), len(ref))
	}
	for i := range ref {
		if !bytes.Equal(got[i].Canonical, ref[i].Canonical) {
			t.Fatalf("recovered ledger diverges from the honest one at %d: %s vs %s", i, got[i].Subject, ref[i].Subject)
		}
	}
}

// buildLive assembles a deployment on an in-process live fabric, closed
// with the test.
func buildLive(t *testing.T, cfg Config) (*Network, *livenet.InProc) {
	t.Helper()
	fab := livenet.NewInProc(nil)
	t.Cleanup(fab.Close)
	cfg.Fabric = fab
	return buildNet(t, cfg), fab
}

// TestSwitchRestartUnderTrafficIsRaceFree restarts a switch over and over
// on a live fabric while every controller keeps sending it updates. The
// replacement's handler is live the moment it registers, so everything the
// restart does to it afterwards — installing the control-plane view, asking
// for the resync — has to happen in the node's serial context. Run under
// -race: a restart that writes the view from the driver goroutine races
// the handler, which reads it for every share it pools.
func TestSwitchRestartUnderTrafficIsRaceFree(t *testing.T) {
	n, fab := buildLive(t, Config{Graph: smallPod(t), ViewChangeTimeout: time.Second})
	victim := topology.ToRName(0, 0, 0)
	src, dst := topology.HostName(0, 0, 0, 0), topology.HostName(0, 0, 2, 0)
	// installed waits until the victim's current instance serves src->dst.
	installed := func() {
		t.Helper()
		sw := n.Switches[victim]
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			var ok bool
			if err := n.On(fabric.NodeID(victim), func() { _, ok = sw.Lookup(src, dst) }); err != nil {
				t.Fatal(err)
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("switch %s never installed %s->%s", victim, src, dst)
			}
		}
	}
	first := n.Switches[victim]
	fab.Invoke(fabric.NodeID(victim), func() { first.PacketArrival(src, dst) })
	installed()

	var stop atomic.Bool
	var senders sync.WaitGroup
	for i, id := range n.Domains[0].Members {
		senders.Add(1)
		go func(from pki.Identity, index uint32) {
			defer senders.Done()
			for seq := uint64(1); !stop.Load(); seq++ {
				// One share per update id never makes a quorum: the switch
				// pools it, which reads the view the restart installs.
				fab.Send(fabric.NodeID(from), fabric.NodeID(victim), protocol.MsgUpdate{
					UpdateID:   openflow.MsgID{Origin: "flood/" + string(from), Seq: seq},
					ShareIndex: index,
				}, 64)
			}
		}(id, uint32(i+1))
	}
	for i := 0; i < 200; i++ {
		if _, err := n.RestartSwitch(victim); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	senders.Wait()
	// The last replacement came up with an empty table and got it back.
	installed()
}
