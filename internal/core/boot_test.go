package core

import (
	"reflect"
	"testing"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/pki"
	"cicero/internal/topology"
)

// recFabric records what booting a node does to its fabric: every send by
// message type, with Invoke thunks run on the spot (one goroutine, so that
// is the node's serial context) and timers dropped.
type recFabric struct {
	handlers map[fabric.NodeID]fabric.Handler
	sent     []fabric.Message
}

func (f *recFabric) Register(id fabric.NodeID, h fabric.Handler)      { f.handlers[id] = h }
func (f *recFabric) Send(_, _ fabric.NodeID, m fabric.Message, _ int) { f.sent = append(f.sent, m) }
func (f *recFabric) After(fabric.NodeID, time.Duration, func())       {}
func (f *recFabric) Invoke(_ fabric.NodeID, fn func())                { fn() }
func (f *recFabric) Charge(fabric.NodeID, time.Duration)              {}
func (f *recFabric) BusyTotal(fabric.NodeID) time.Duration            { return 0 }
func (f *recFabric) Now() fabric.Time                                 { return 0 }
func (f *recFabric) Crashed(fabric.NodeID) bool                       { return false }
func (f *recFabric) Stats() fabric.Stats                              { return fabric.Stats{} }

// count returns how many recorded messages have msg's type.
func (f *recFabric) count(msg fabric.Message) int {
	n := 0
	for _, m := range f.sent {
		if reflect.TypeOf(m) == reflect.TypeOf(msg) {
			n++
		}
	}
	return n
}

// TestBootAppliesTheRestartRule drives BootController and BootSwitch, the
// functions every backend builds a node with, at a first boot and at a
// later epoch, and checks the whole of the restart rule: who is born
// recovering, who asks for what, under which epoch a switch numbers its
// events — and that a joiner, provisioned with an identity and no share,
// boots and signs nothing.
func TestBootAppliesTheRestartRule(t *testing.T) {
	cfg := Config{Graph: smallPod(t), Cost: protocol.Calibrated(), Metadata: true}.Defaulted()
	prov, err := Provision(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := prov.Domains[0]
	src, dst := topology.HostName(0, 0, 0, 0), topology.HostName(0, 0, 2, 0)

	for _, epoch := range []uint32{0, 2} {
		reborn := epoch > 0
		asked := map[bool]int{false: 0, true: len(d.Members) - 1}[reborn]

		fab := &recFabric{handlers: make(map[fabric.NodeID]fabric.Handler)}
		ctl, err := BootController(cfg, fab, prov, 0, d.Members[1], epoch)
		if err != nil {
			t.Fatal(err)
		}
		if ctl.Recovering() != reborn {
			t.Errorf("controller at epoch %d: Recovering() = %v", epoch, ctl.Recovering())
		}
		if got := fab.count(protocol.MsgRecoverRequest{}); got != asked {
			t.Errorf("controller at epoch %d sent %d recovery requests, want %d", epoch, got, asked)
		}

		fab = &recFabric{handlers: make(map[fabric.NodeID]fabric.Handler)}
		sw, err := BootSwitch(cfg, fab, prov, d.Switches[0], epoch)
		if err != nil {
			t.Fatal(err)
		}
		asked = map[bool]int{false: 0, true: len(d.Members)}[reborn]
		if resync, meta := fab.count(protocol.MsgResyncRequest{}), fab.count(protocol.MsgMetaRequest{}); resync != asked || meta != asked {
			t.Errorf("switch at epoch %d sent %d resync and %d metadata requests, want %d of each", epoch, resync, meta, asked)
		}
		fab.sent = nil
		sw.PacketArrival(src, dst)
		if len(fab.sent) != len(d.Members) {
			t.Fatalf("switch at epoch %d: table miss sent %d messages, want an event to each of %d controllers", epoch, len(fab.sent), len(d.Members))
		}
		ev, err := protocol.DecodeEvent(fab.sent[0].(protocol.MsgEvent).Env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if ev.ID.Seq>>32 != uint64(epoch) || uint32(ev.ID.Seq) != 1 {
			t.Errorf("switch at epoch %d: first event is numbered %#x, want epoch %d in the high half and 1 below", epoch, ev.ID.Seq, epoch)
		}
	}

	// The joiner: enrolled, booted, handed an event a member would order
	// and sign for. It has no replica to order with and no share.
	joinerID := ControllerName(0, 5)
	if err := prov.Enroll(joinerID); err != nil {
		t.Fatal(err)
	}
	fab := &recFabric{handlers: make(map[fabric.NodeID]fabric.Handler)}
	joiner, err := BootController(cfg, fab, prov, 0, joinerID, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev := protocol.Event{ID: openflow.MsgID{Origin: d.Switches[0], Seq: 1}, Kind: protocol.EventFlowRequest, Src: src, Dst: dst}
	fab.handlers[fabric.NodeID(joinerID)].HandleMessage(fabric.NodeID(d.Switches[0]),
		protocol.MsgEvent{Env: pki.Envelope{From: pki.Identity(d.Switches[0]), Payload: ev.Encode()}})
	if joiner.Recovering() || joiner.UpdatesSigned != 0 || fab.count(protocol.MsgUpdate{}) != 0 || joiner.RequestAddController("x") == nil {
		t.Errorf("joiner: recovering=%v updatesSigned=%d updatesSent=%d, and it may admit members: %v",
			joiner.Recovering(), joiner.UpdatesSigned, fab.count(protocol.MsgUpdate{}), joiner.RequestAddController("x") == nil)
	}
}

// TestRebornBootstrapControllerKeepsItsRole settles what a restart does to
// the bootstrap role (§4.3): nothing. The member in slot 0 may still
// propose an admission after any number of reboots, and no other member
// may at any. core's restart always kept the role; the process-per-node
// boot dropped it on the first restart, after which no controller could
// ever be added again (TestRebootedBootstrapNodeKeepsItsRole in
// internal/distrib is the same check on that side).
func TestRebornBootstrapControllerKeepsItsRole(t *testing.T) {
	n, fab := buildLive(t, Config{Graph: smallPod(t), ViewChangeTimeout: time.Second})
	joiner := ControllerName(0, 5)
	for slot, id := range n.Domains[0].Members[:2] {
		for _, epoch := range []uint32{1, 2} {
			ctl, err := BootController(n.Cfg, fab, n.Provisioning, 0, id, epoch)
			if err != nil {
				t.Fatal(err)
			}
			var refused error
			if err := n.On(fabric.NodeID(id), func() { refused = ctl.RequestAddController(joiner) }); err != nil {
				t.Fatal(err)
			}
			if (refused == nil) != (slot == 0) {
				t.Errorf("slot %d at epoch %d: RequestAddController = %v", slot, epoch, refused)
			}
		}
	}
}
