package core

import (
	"testing"
	"time"

	"cicero/internal/audit"
	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/topology"
)

// Nodes retransmit on their own timers, with no driver call: a controller a
// release its switch has not acknowledged, 2T, 4T, … after the release, and
// a switch a table-miss event no rule has answered, 4T, 8T, … after it
// emitted it, where T is the view-change timeout; each stops after
// fabric.Retries tries.

// TestLostSharesRetransmitted: every member's first share of the egress
// update is lost — the three designated ones at release, the late signer's
// one view-change timeout later. No driver steps in; each member
// retransmits the update once, two view-change timeouts after the release,
// and the switch applies it on those shares.
func TestLostSharesRetransmitted(t *testing.T) {
	fl := smallFlow()
	id, _, _, _ := designatedFor(t, fl)
	r := newFaultRun(t, fl)
	first := make(map[fabric.NodeID]bool)
	sends := watchShares(r.Network, func(from fabric.NodeID, sid openflow.MsgID, _ fabric.Message) fabric.FaultAction {
		if sid != id || first[from] {
			return fabric.FaultAction{}
		}
		first[from] = true
		return fabric.FaultAction{Drop: true}
	})
	fl.install(t, r)
	at, ok := r.applied[id]
	if !ok || r.forged {
		t.Fatalf("applied %v, forged %v; want %s applied", r.applied, r.forged, id)
	}
	T := r.Cfg.ViewChangeTimeout
	released := sends[id][0].at
	if wait := at - released; wait < 2*T || wait > 2*T+5*time.Millisecond {
		t.Errorf("applied %v after the release, want just after two view-change timeouts (%v)", wait, 2*T)
	}
	for _, m := range r.Domains[0].Members {
		n := 0
		for _, s := range sends[id] {
			if s.from == fabric.NodeID(m) {
				n++
			}
		}
		if n != 2 {
			t.Errorf("%s sent %d shares of %s, want 2: the lost one and one retransmission", m, n, id)
		}
	}
	for _, c := range r.Domains[0].Controllers {
		if c.UpdatesRetransmitted != 1 {
			t.Errorf("%s counts %d retransmissions, want 1", c.ID(), c.UpdatesRetransmitted)
		}
	}
}

// eventSends records each table-miss event the simulator carries from one
// switch to a controller — its id and when it was sent — and drops the
// first emission's copies when lose is set.
type eventSends struct {
	ids []openflow.MsgID
	at  []fabric.Time
}

func watchEvents(t *testing.T, n *Network, sw string, lose bool) *eventSends {
	t.Helper()
	seen := &eventSends{}
	n.Net.SetFilter(func(from, _ fabric.NodeID, msg fabric.Message, _ int) fabric.FaultAction {
		m, ok := msg.(protocol.MsgEvent)
		if !ok || from != fabric.NodeID(sw) {
			return fabric.FaultAction{}
		}
		ev, err := protocol.DecodeEvent(m.Env.Payload)
		if err != nil {
			t.Errorf("undecodable event from %s: %v", sw, err)
			return fabric.FaultAction{}
		}
		seen.ids = append(seen.ids, ev.ID)
		seen.at = append(seen.at, n.Sim.Now())
		return fabric.FaultAction{Drop: lose && len(seen.ids) <= len(n.Domains[0].Members)}
	})
	return seen
}

// TestLostEventResent: the table-miss event of a flow is lost to every
// controller. The ingress switch sends it again four view-change timeouts
// later, under the same id, and the flow completes; every controller's
// ledger holds the event once.
func TestLostEventResent(t *testing.T) {
	fl := smallFlow()
	r := newFaultRun(t, fl)
	ingress := topology.ToRName(0, 0, 0)
	sends := watchEvents(t, r.Network, ingress, true)
	fl.install(t, r)
	if len(r.applied) == 0 || r.forged {
		t.Fatalf("applied %v, forged %v; want the flow installed", r.applied, r.forged)
	}
	if _, ok := r.Switches[ingress].Lookup(fl.src, fl.dst); !ok {
		t.Fatalf("the ingress holds no rule for %s → %s", fl.src, fl.dst)
	}
	members := len(r.Domains[0].Members)
	if len(sends.ids) != 2*members {
		t.Fatalf("%d event copies left %s, want %d: the lost emission and one re-send", len(sends.ids), ingress, 2*members)
	}
	id := sends.ids[0]
	for _, got := range sends.ids {
		if got != id {
			t.Fatalf("the re-send carries id %s, want %s", got, id)
		}
	}
	T := r.Cfg.ViewChangeTimeout
	if wait := sends.at[members] - sends.at[0]; wait != 4*T {
		t.Errorf("re-sent %v after the emission, want four view-change timeouts (%v)", wait, 4*T)
	}
	if got := r.Switches[ingress].EventsResent; got != 1 {
		t.Errorf("the ingress counts %d re-sends, want 1", got)
	}
	ledgers, err := r.Ledgers(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range ledgers {
		n := 0
		for _, rec := range l {
			if rec.Kind == audit.KindEvent && rec.Subject == id.String() {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s's ledger holds event %s %d times, want once", r.Domains[0].Members[i], id, n)
		}
	}
}

// TestRetriesStopAtTheCap: a table-miss event at a switch off the flow's
// path, whose plan installs nothing there, stays pending; the flow's egress
// is crashed, so the egress update of that plan and of the ingress's own
// is never acknowledged. Each is retried fabric.Retries times and then
// left, so the simulator goes idle and Settle returns.
func TestRetriesStopAtTheCap(t *testing.T) {
	fl := smallFlow()
	r := newFaultRun(t, fl)
	r.Net.Crash(simnet.NodeID(fl.egress))
	offPath := topology.ToRName(0, 0, 1)
	sends := watchEvents(t, r.Network, offPath, false)
	r.Switches[offPath].PacketArrival(fl.src, fl.dst)
	r.Switches[topology.ToRName(0, 0, 0)].PacketArrival(fl.src, fl.dst)
	if err := r.Settle(time.Second); err != nil {
		t.Fatal(err)
	}
	T := r.Cfg.ViewChangeTimeout
	members := len(r.Domains[0].Members)
	if got, want := len(sends.ids), (1+fabric.Retries)*members; got != want {
		t.Errorf("%d event copies left %s, want %d: the emission and %d re-sends", got, offPath, want, fabric.Retries)
	}
	if last := sends.at[len(sends.at)-1] - sends.at[0]; last != 4*T<<(fabric.Retries-1) {
		t.Errorf("the last re-send went %v after the emission, want %v", last, 4*T<<(fabric.Retries-1))
	}
	if got := r.Switches[offPath].EventsResent; got != fabric.Retries {
		t.Errorf("%s counts %d re-sends, want %d", offPath, got, fabric.Retries)
	}
	for _, c := range r.Domains[0].Controllers {
		if c.UpdatesRetransmitted != 2*fabric.Retries || c.Unacked() != 2 {
			t.Errorf("%s retransmitted %d updates and awaits %d acks, want %d and 2", c.ID(), c.UpdatesRetransmitted, c.Unacked(), 2*fabric.Retries)
		}
	}
	if end := r.Sim.Now(); end > 4*T<<fabric.Retries {
		t.Errorf("the simulator ran until %v, past every cap", end)
	}
}

// TestReplacedSwitchResendsNothing: a switch restarted while an event of
// its old instance is pending does not hear from that instance again: the
// old instance's re-send timer finds it stopped.
func TestReplacedSwitchResendsNothing(t *testing.T) {
	fl := smallFlow()
	r := newFaultRun(t, fl)
	r.Net.Crash(simnet.NodeID(fl.egress))
	offPath := topology.ToRName(0, 0, 1)
	sends := watchEvents(t, r.Network, offPath, false)
	r.Switches[offPath].PacketArrival(fl.src, fl.dst)
	if _, err := r.RestartSwitch(offPath); err != nil {
		t.Fatal(err)
	}
	if err := r.Settle(time.Second); err != nil {
		t.Fatal(err)
	}
	if members := len(r.Domains[0].Members); len(sends.ids) != members {
		t.Errorf("%d event copies left %s, want %d: the first emission only", len(sends.ids), offPath, members)
	}
}
