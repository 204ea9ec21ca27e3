package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"cicero/internal/audit"
	"cicero/internal/controlplane"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/topology"
)

// A switch applies an update on the first t shares and drops the rest
// unread, so a controller that releases an update its switch has already
// acknowledged has nothing to sign. It still ledgers the release: the audit
// ledger and the release order do not depend on when, or whether, it sends.

// updateSubjects lists the update ids a ledger records, in ledger order.
func updateSubjects(ledger []audit.Record) []string {
	var ids []string
	for _, r := range ledger {
		if r.Kind == audit.KindUpdate {
			ids = append(ids, r.Subject)
		}
	}
	return ids
}

// isUpdate reports whether msg carries a controller's signature on an update.
func isUpdate(msg fabric.Message) bool {
	switch msg.(type) {
	case protocol.MsgUpdate, protocol.MsgBatchUpdate:
		return true
	}
	return false
}

// TestReleaseBehindItsAckSignsNothing holds one controller's mailbox shut
// on a live fabric while the other three order a flow and its switches
// install it on their shares. When the mailbox opens, the switches' acks
// are already queued in it behind the agreement traffic: the controller
// delivers the event, releases every update of the flow, reads the acks,
// and sends no update at all.
func TestReleaseBehindItsAckSignsNothing(t *testing.T) {
	var mu sync.Mutex
	sent := make(map[fabric.NodeID]int) // update messages each node sent
	inproc := livenet.NewInProc(nil)
	t.Cleanup(inproc.Close)
	tapped := fabric.Tap(inproc, func(kind string, from, _ fabric.NodeID, msg fabric.Message) {
		if kind == fabric.TapSend && isUpdate(msg) {
			mu.Lock()
			sent[from]++
			mu.Unlock()
		}
	})
	n := buildNet(t, Config{Graph: smallPod(t), Fabric: tapped, ViewChangeTimeout: time.Second})
	dom := n.Domains[0]
	late := dom.Controllers[3] // not the view-0 primary
	lateID := fabric.NodeID(late.ID())
	on := func(id fabric.NodeID, fn func()) {
		t.Helper()
		if err := n.On(id, fn); err != nil {
			t.Fatal(err)
		}
	}

	gate := make(chan struct{})
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	t.Cleanup(release)
	inproc.Invoke(lateID, func() { <-gate })

	src, dst := topology.HostName(0, 0, 0, 0), topology.HostName(0, 0, 2, 0)
	path := n.Graph.SwitchesOnPath(n.Graph.ShortestPath(src, dst))
	ingress := n.Switches[path[0]]
	installed := make(chan struct{})
	on(fabric.NodeID(ingress.ID()), func() {
		ingress.Subscribe(src, dst, func(fabric.Time) { close(installed) })
		ingress.PacketArrival(src, dst)
	})
	select {
	case <-installed:
	case <-time.After(20 * time.Second):
		t.Fatal("the three open controllers did not install the flow")
	}
	// The ingress is installed last; once its handler has returned, its ack
	// is in the late controller's mailbox, behind every other hop's.
	on(fabric.NodeID(ingress.ID()), func() {})
	release()

	var ledgered []string
	for deadline := time.Now().Add(20 * time.Second); len(ledgered) < len(path); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the late controller ledgered %v, want the flow's %d updates", ledgered, len(path))
		}
		on(lateID, func() { ledgered = updateSubjects(late.AuditRecords()) })
	}
	var signed uint64
	on(lateID, func() { signed = late.UpdatesSigned }) // behind its flush
	mu.Lock()
	lateSent, othersSent := sent[lateID], 0
	for _, m := range dom.Members[:3] {
		othersSent += sent[fabric.NodeID(m)]
	}
	mu.Unlock()
	if lateSent != 0 || signed != 0 {
		t.Errorf("the late controller sent %d updates and counted %d signed, want none: its switches had acknowledged all %d", lateSent, signed, len(path))
	}
	if othersSent == 0 {
		t.Error("the other controllers sent no update")
	}
	ledgers, err := n.Ledgers(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range ledgers {
		if got := updateSubjects(l); !slices.Equal(got, ledgered) {
			t.Errorf("%s ledgered updates %v, the late controller %v", dom.Members[i], got, ledgered)
		}
	}
}

// TestHealedControllerSignsNothingItsSwitchApplied partitions one
// controller from its peers on the simulator while the other three install
// a flow, then heals it. It catches up through its gap-stall recovery and
// releases the flow's updates, which their switches acknowledged long
// before: it ledgers each and sends none.
func TestHealedControllerSignsNothingItsSwitchApplied(t *testing.T) {
	n := buildNet(t, Config{
		Graph:             smallPod(t),
		Protocol:          controlplane.ProtoCicero,
		Cost:              protocol.Calibrated(),
		Seed:              41,
		ViewChangeTimeout: 20 * time.Millisecond,
	})
	dom := n.Domains[0]
	late := dom.Controllers[3]
	lateID := fabric.NodeID(late.ID())
	var sent []string
	n.Net.SetFilter(func(from, _ fabric.NodeID, msg fabric.Message, _ int) fabric.FaultAction {
		if up, ok := msg.(protocol.MsgUpdate); ok && from == lateID {
			sent = append(sent, up.UpdateID.String())
		}
		return fabric.FaultAction{}
	})
	for _, m := range dom.Members[:3] {
		n.Net.Partition(lateID, simnet.NodeID(m))
	}
	src := topology.HostName(0, 0, 0, 0)
	sw := n.Switches[topology.ToRName(0, 0, 0)]
	sw.PacketArrival(src, topology.HostName(0, 0, 2, 0))
	if _, err := n.Sim.RunUntil(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	applied := updateSubjects(dom.Controllers[0].AuditRecords())
	if len(applied) == 0 || len(late.AuditRecords()) != 0 {
		t.Fatalf("while partitioned: peers ledgered %v, the partitioned controller %d records", applied, len(late.AuditRecords()))
	}

	for _, m := range dom.Members[:3] {
		n.Net.Heal(lateID, simnet.NodeID(m))
	}
	// A second flow commits slots above the healed controller's gap.
	sw.PacketArrival(src, topology.HostName(0, 0, 3, 0))
	if _, err := n.Sim.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	ledgered := updateSubjects(late.AuditRecords())
	for _, id := range applied {
		if !slices.Contains(ledgered, id) {
			t.Errorf("the healed controller did not ledger %s (ledgered %v)", id, ledgered)
		}
		if slices.Contains(sent, id) {
			t.Errorf("the healed controller sent %s, which its switch had applied before the heal", id)
		}
	}
	if late.UpdatesSigned != uint64(len(sent)) {
		t.Errorf("UpdatesSigned = %d, but the controller sent %d updates", late.UpdatesSigned, len(sent))
	}
}
