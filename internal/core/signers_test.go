package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

// A switch applies an update on the first t = f+1 valid shares, so 2f+1
// designated members sign each update at its release — at least t of them
// honest — and the other f sign only if the switch is still silent one
// view-change timeout later. Which members are designated is a function of
// the update id and the membership slot alone, so a fault-free run of a
// deployment names them for every faulted run of the same deployment.

// shareSends is what a simulator filter saw of update shares: per update,
// its senders in send order and the time of each send.
type shareSends map[openflow.MsgID][]shareSend

type shareSend struct {
	from fabric.NodeID
	at   fabric.Time
}

// senders lists the distinct senders of one update.
func (s shareSends) senders(id openflow.MsgID) []fabric.NodeID {
	var out []fabric.NodeID
	for _, e := range s[id] {
		if !slices.Contains(out, e.from) {
			out = append(out, e.from)
		}
	}
	return out
}

// watchShares records every update share the simulator carries; fault,
// when not nil, decides each one's fate.
func watchShares(n *Network, fault func(from fabric.NodeID, id openflow.MsgID, msg fabric.Message) fabric.FaultAction) shareSends {
	seen := make(shareSends)
	n.Net.SetFilter(func(from, _ fabric.NodeID, msg fabric.Message, _ int) fabric.FaultAction {
		up, ok := msg.(protocol.MsgUpdate)
		if !ok {
			return fabric.FaultAction{}
		}
		id := up.UpdateID
		seen[id] = append(seen[id], shareSend{from: from, at: n.Sim.Now()})
		if fault == nil {
			return fabric.FaultAction{}
		}
		return fault(from, id, msg)
	})
	return seen
}

// TestDesignatedSignersFaultFree runs a few hundred flows without a fault at
// n = 4 and n = 7. Every applied update is signed by exactly 2f+1 members
// and by no late signer, no node retransmits anything, and the designated
// set rotates so that each member signs (2f+1)/n of the updates.
func TestDesignatedSignersFaultFree(t *testing.T) {
	for _, n := range []int{4, 7} {
		f := (n - 1) / 3
		signers := 2*f + 1
		net := buildNet(t, Config{
			Graph:                smallPod(t),
			Protocol:             controlplane.ProtoCicero,
			ControllersPerDomain: n,
			Cost:                 protocol.Calibrated(),
			PairRules:            true,
			Seed:                 5,
		})
		sends := watchShares(net, nil)
		// Flows far enough apart that no switch is still busy verifying a
		// share one view-change timeout after it was sent: under load
		// that a timeout does not cover, the late signer rightly signs.
		flows, err := workload.Generate(net.Graph, workload.Config{
			Mix: workload.HadoopMix(), Flows: 300, MeanInterarrival: 10 * time.Millisecond, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Each flow installs its rules and tears them down again, so every
		// flow adds updates of its own.
		results, err := net.RunFlows(flows, RunOptions{Teardown: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(flows) {
			t.Fatalf("n=%d: %d of %d flows completed", n, len(results), len(flows))
		}
		var signed, applied, retransmitted, resent uint64
		dom := net.Domains[0]
		for _, c := range dom.Controllers {
			signed += c.UpdatesSigned
			retransmitted += c.UpdatesRetransmitted
		}
		for _, sw := range net.Switches {
			applied += sw.UpdatesApplied
			resent += sw.EventsResent
		}
		if retransmitted != 0 || resent != 0 {
			t.Errorf("n=%d: without a fault, %d updates were retransmitted and %d events re-sent, want none", n, retransmitted, resent)
		}
		if applied == 0 || signed != uint64(signers)*applied {
			t.Errorf("n=%d: %d signatures for %d applied updates (%.3f each), want exactly %d each",
				n, signed, applied, float64(signed)/float64(applied), signers)
		}
		if len(sends) != int(applied) {
			t.Errorf("n=%d: %d updates were signed, %d applied", n, len(sends), applied)
		}
		share := make(map[fabric.NodeID]int)
		for id := range sends {
			who := sends.senders(id)
			if len(who) != signers || len(sends[id]) != signers {
				t.Errorf("n=%d: %s was signed %d times by %v, want once by each of %d designated members",
					n, id, len(sends[id]), who, signers)
			}
			for _, m := range who {
				share[m]++
			}
		}
		want := float64(signers) / float64(n)
		for _, m := range dom.Members {
			got := float64(share[fabric.NodeID(m)]) / float64(len(sends))
			if math.Abs(got/want-1) > 0.05 {
				t.Errorf("n=%d: %s signed %.3f of %d updates, want %.3f ± 5 %%", n, m, got, len(sends), want)
			}
		}
		t.Logf("n=%d: %d updates applied, %d signatures; per member %v", n, applied, signed, share)
	}
}

// oneFlow is the flow the fault tests install, and the egress switch
// whose update the scheduler releases first.
type oneFlow struct {
	src, dst string
	egress   string
}

func smallFlow() oneFlow {
	return oneFlow{
		src:    topology.HostName(0, 0, 0, 0),
		dst:    topology.HostName(0, 0, 2, 0),
		egress: topology.ToRName(0, 0, 2),
	}
}

// faultRun is one deployment of the fault tests: CryptoReal makes a forged
// share something the switch must refuse. applied holds the time each update
// was applied at the flow's egress, and forged whether any switch applied an
// update that failed verification.
type faultRun struct {
	*Network
	applied map[openflow.MsgID]fabric.Time
	forged  bool
}

func newFaultRun(t *testing.T, fl oneFlow) *faultRun {
	t.Helper()
	r := &faultRun{applied: make(map[openflow.MsgID]fabric.Time)}
	r.Network = buildNet(t, Config{
		Graph:             smallPod(t),
		Protocol:          controlplane.ProtoCicero,
		Cost:              protocol.Calibrated(),
		CryptoReal:        true,
		Seed:              9,
		ViewChangeTimeout: 20 * time.Millisecond,
		SwitchApplyHook: func(sw string, id openflow.MsgID, _ uint64, _ []openflow.FlowMod, valid bool) {
			if !valid {
				r.forged = true
			} else if sw == fl.egress {
				r.applied[id] = r.Sim.Now()
			}
		},
	})
	return r
}

// install starts the flow and runs the simulator to quiescence.
func (fl oneFlow) install(t *testing.T, r *faultRun) {
	t.Helper()
	r.Switches[topology.ToRName(0, 0, 0)].PacketArrival(fl.src, fl.dst)
	if _, err := r.Sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// designatedFor runs the flow once without a fault and returns the update
// its egress applies, the members that signed it, the one that did not,
// and the view-0 primary.
func designatedFor(t *testing.T, fl oneFlow) (id openflow.MsgID, designated []fabric.NodeID, late, primary fabric.NodeID) {
	t.Helper()
	r := newFaultRun(t, fl)
	sends := watchShares(r.Network, nil)
	fl.install(t, r)
	if len(r.applied) != 1 || r.forged {
		t.Fatalf("fault-free: the egress applied %v, forged %v; want 1 update", r.applied, r.forged)
	}
	for id = range r.applied {
	}
	designated = sends.senders(id)
	for _, m := range r.Domains[0].Members {
		if !slices.Contains(designated, fabric.NodeID(m)) {
			late = fabric.NodeID(m)
		}
	}
	if len(designated) != 3 || late == "" {
		t.Fatalf("fault-free: %s was signed by %v, want 3 of the 4 members", id, designated)
	}
	return id, designated, late, fabric.NodeID(r.Domains[0].Members[0])
}

// TestLostDesignatedSharesFallBackToLateSigner: of the three members
// designated for the egress update, one is crashed and another's shares to
// the switch are lost, so one share arrives at release. The fourth member,
// not designated, signs when its timer finds the update unacknowledged one
// view-change timeout after the release, and that one share completes the
// quorum. One designated member lost alone costs no wait: the other two
// are a quorum.
func TestLostDesignatedSharesFallBackToLateSigner(t *testing.T) {
	fl := smallFlow()
	id, designated, late, primary := designatedFor(t, fl)
	var backups []fabric.NodeID // designated, and not the view-0 primary
	for _, m := range designated {
		if m != primary {
			backups = append(backups, m)
		}
	}
	crashed, lossy := backups[0], backups[1]

	t.Run("one lost", func(t *testing.T) {
		r := newFaultRun(t, fl)
		r.Net.Crash(simnet.NodeID(crashed))
		sends := watchShares(r.Network, nil)
		fl.install(t, r)
		if _, ok := r.applied[id]; !ok || r.forged {
			t.Fatalf("with %s crashed: applied %v, forged %v", crashed, r.applied, r.forged)
		}
		if slices.Contains(sends.senders(id), late) {
			t.Errorf("with one designated member down, %s still signed late", late)
		}
	})

	t.Run("two lost", func(t *testing.T) {
		r := newFaultRun(t, fl)
		r.Net.Crash(simnet.NodeID(crashed))
		sends := watchShares(r.Network, func(from fabric.NodeID, sid openflow.MsgID, _ fabric.Message) fabric.FaultAction {
			return fabric.FaultAction{Drop: from == lossy && sid == id}
		})
		fl.install(t, r)
		at, ok := r.applied[id]
		if !ok || r.forged {
			t.Fatalf("applied %v, forged %v; want %s applied", r.applied, r.forged, id)
		}
		var released, lateAt fabric.Time = -1, -1
		lateShares := 0
		for _, s := range sends[id] {
			switch {
			case s.from == late:
				lateShares++
				lateAt = s.at
			case released < 0:
				released = s.at
			}
		}
		T := r.Cfg.ViewChangeTimeout
		if lateShares != 1 {
			t.Fatalf("%s sent %d shares of %s, want exactly 1", late, lateShares, id)
		}
		if wait := lateAt - released; wait < T-time.Millisecond || wait > T+2*time.Millisecond {
			t.Errorf("the late share went %v after the release, want about one view-change timeout (%v)", wait, T)
		}
		if at < lateAt || at-released > T+5*time.Millisecond {
			t.Errorf("applied %v after the release (late share at %v), want just after the late share", at-released, lateAt-released)
		}
	})
}

// TestByzantineDesignatedSignerCannotForgeOrBlock: a designated member's
// shares are replaced with junk. The switch refuses them, installs nothing
// unverified, and applies the update on the two honest designated shares
// without waiting for the late signer.
func TestByzantineDesignatedSignerCannotForgeOrBlock(t *testing.T) {
	fl := smallFlow()
	id, designated, late, _ := designatedFor(t, fl)
	byz := designated[0]
	r := newFaultRun(t, fl)
	junk := r.Scheme.Params.PointBytes(r.Scheme.Params.ScalarBaseMul(bigOne()))
	sends := watchShares(r.Network, func(from fabric.NodeID, _ openflow.MsgID, msg fabric.Message) fabric.FaultAction {
		up, ok := msg.(protocol.MsgUpdate)
		if from != byz || !ok {
			return fabric.FaultAction{}
		}
		up.Share = junk
		return fabric.FaultAction{Replace: up}
	})
	fl.install(t, r)
	if _, ok := r.applied[id]; !ok || r.forged {
		t.Fatalf("with %s Byzantine: applied %v, forged %v; want %s applied and nothing forged", byz, r.applied, r.forged, id)
	}
	if slices.Contains(sends.senders(id), late) {
		t.Errorf("%s signed late: the two honest designated shares were a quorum", late)
	}
	if got := r.Switches[fl.egress].UpdatesApplied; got != 1 {
		t.Errorf("the egress applied %d updates, want 1", got)
	}
}
