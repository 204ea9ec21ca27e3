// Wall-clock chaos: the live backends' drive step. A profile whose Backend
// names a live fabric (internal/livenet) runs through the same RunSeed as
// on the simulator. The same fault families — message
// drop/delay/duplication/corruption, crash windows, partitions, and a
// Byzantine controller — inject through the fabric fault plane
// (fabric.FaultInjector), so one filter implementation adjudicates
// messages identically on simnet, in-process channels, and TCP sockets.
//
// Live runs are not deterministic (goroutine scheduling and real sockets
// interleave freely), so the invariant plane shifts from the simulator's
// online per-step checks to convergence checks: faults are injected for a
// bounded wall-clock window, every fault is then healed (crashed machines
// restart via the fabric, crashed processes rebuild via
// core.RestartController / core.RestartSwitch and run the protocol's
// recovery paths), a drain phase re-drives stalled flows until the network
// quiesces, and the final state must converge:
//
//   - the data-plane walk invariants (blackhole freedom, loop freedom,
//     path consistency) hold on a quiesced snapshot of every flow table;
//   - honest controllers' event ledgers agree (pairwise prefix);
//   - every update any switch applied as valid appears in an honest
//     controller's audit ledger (no-forged-rule — with the verification
//     canary planted, this is the check that must fire);
//   - restarted controllers' rebuilt ledgers are prefix-consistent with
//     their never-crashed peers' (recovery never installs forged or
//     reordered history), and byte-identical under benign fault profiles
//     (recovery really resynchronized);
//   - the final flow tables match a fault-free simnet reference run of the
//     same workload (crashed switches provably rebuilt their tables).
package chaos

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/metrics"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/pki"
)

const (
	// liveViewChangeTimeout is the live controllers' view-change timeout.
	// Wall-clock runs share cores with the whole harness (and the race
	// detector in CI), so this must dwarf scheduling hiccups; it still has
	// to be small enough that a crashed primary is replaced within the
	// drain budget.
	liveViewChangeTimeout = 2 * time.Second
	// liveMetaProbeSettle strictly exceeds the store canary's proof
	// lifetime plus the stale grace (liveTiming), so a frozen store is
	// always past expiry by the time the post-drain sweep reads it.
	liveMetaProbeSettle = 500 * time.Millisecond
)

// liveEvent is one entry of the wall-clock fault/workload timeline.
type liveEvent struct {
	at time.Duration
	fn func()
}

// liveCluster is the wall-clock backend: faults actuate on a livenet
// fabric, scheduled functions queue on a timeline the driver goroutine
// runs, and node state is only touched through the fabric's serial
// contexts. All orchestration (timeline, drain, snapshots) happens on the
// single driver goroutine.
type liveCluster struct {
	livenet.Live
	c      *campaign
	events []liveEvent
	// ctlRestarted / swRestarted: nodes rebuilt after a crash window.
	ctlRestarted map[fabric.NodeID]bool
	swRestarted  map[fabric.NodeID]bool
}

func newLiveCluster(fab livenet.Live, c *campaign) *liveCluster {
	return &liveCluster{Live: fab, c: c,
		ctlRestarted: make(map[fabric.NodeID]bool), swRestarted: make(map[fabric.NodeID]bool)}
}

func (l *liveCluster) at(d time.Duration, fn func()) {
	l.events = append(l.events, liveEvent{d, fn})
}

// restart revives the machine on the fabric (a crash purged its mailbox
// and severed its sockets), then rebuilds the process.
func (l *liveCluster) restart(id fabric.NodeID) error {
	l.Restart(id)
	net := l.c.net
	if slot := slices.Index(net.Domains[0].Members, pki.Identity(id)); slot >= 0 {
		if _, err := net.RestartController(0, slot); err != nil {
			return err
		}
		l.ctlRestarted[id] = true
	} else {
		if _, err := net.RestartSwitch(string(id)); err != nil {
			return err
		}
		l.swRestarted[id] = true
	}
	l.c.count(metrics.CounterRestart, 1)
	return nil
}

// tapBFT is a live fabric's tap: it records every broadcast message a
// node sends, before the injector adjudicates it.
func (rec *recorder) tapBFT(kind string, from, to fabric.NodeID, msg fabric.Message) {
	if m, ok := msg.(protocol.MsgBFT); ok && kind == fabric.TapSend {
		rec.note("bft", fmt.Sprintf("%s->%s %s", from, to, bftString(m)))
	}
}

// drive is a live backend's drive step: run the wall-clock timeline, then,
// with every fault healed and every crashed node restarted, drain, await
// recoveries and quiescence, and judge the quiesced snapshot with the
// shared checks.
func (l *liveCluster) drive(res *SeedResult) {
	c := l.c
	sort.SliceStable(l.events, func(i, j int) bool { return l.events[i].at < l.events[j].at })
	start := time.Now()
	for _, ev := range l.events {
		if wait := ev.at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		ev.fn()
	}

	// The drain is a recovery policy, not a quiescence test, and stays
	// this backend's own: a crash purges a mailbox and severs sockets, the
	// messages lost there are counted nowhere, and the fabric's books never
	// balance again — core.Network.Settle's rule does not apply.
	deadline := time.Now().Add(c.p.DrainTimeout)
	l.drainFlows(deadline)
	res.CtlRecovered = l.awaitRecoveries(deadline)
	l.awaitQuiescence(deadline)

	// Convergence: the shared checks over a quiesced snapshot, against the
	// fault-free simnet reference of the same workload. The reference does
	// not pay for real crypto (the compared digests are crypto-independent)
	// and runs no metadata plane; the comparison is meaningless under the
	// switch canary, which plants forged rules.
	refCfg := campaignConfig(c.p, c.net.Graph, nil, c.seed)
	refCfg.CryptoReal = false
	specs := make([]Flow, len(c.flows))
	for i, f := range c.flows {
		specs[i] = f.Flow
	}
	refDigest, err := ReferenceDigest(refCfg, specs)
	if err != nil {
		c.fail(fmt.Errorf("simnet reference: %w", err))
	} else if s, err := l.snapshot(); err != nil {
		c.fail(err)
	} else {
		ref := refDigest
		if c.p.switchCanary() {
			ref = ""
		}
		for _, v := range Converge(s, ref) {
			c.report(v.Invariant, v.Detail, v.Detail, v.token)
		}
		res.ResyncProven = s.ResyncProven()
		res.TableDigest = openflow.TablesDigest(s.Tables)
		res.TableMatch = res.TableDigest == refDigest
	}
	if c.p.Metadata {
		// A first sweep records every switch store's adopted versions and
		// judges the settled state — before the replay probe rewrites a
		// bypassed store's contents; the probe replays the pre-change set
		// against the settled system; once it has landed, the second sweep
		// must find no store rolled back, nothing adopted that honest
		// controllers never signed, and no store claiming freshness on an
		// expired proof.
		c.sweepMetaStores()
		c.metaAttackWave("post-drain wave", true)
		time.Sleep(liveMetaProbeSettle)
		c.sweepMetaStores()
	}

	res.CtlRestarts = len(l.ctlRestarted)
	res.SwitchRestarts = len(l.swRestarted)
	res.Resilience = l.Resilience()
	c.count(metrics.CounterRetry, res.Resilience.Retries)
	c.count(metrics.CounterReconnect, res.Resilience.Reconnects)
}

// drainFlows re-drives stalled flows until all complete or the deadline
// passes. Re-driving is cheap and idempotent, and it is all the drain
// does: an event or update a fault window lost, the switches and
// controllers retransmit on their own timers.
func (l *liveCluster) drainFlows(deadline time.Time) {
	for {
		stalled := 0
		for _, f := range l.c.flows {
			if !f.done.Load() && !f.Unroutable {
				stalled++
				l.c.driveFlow(f)
			}
		}
		if stalled == 0 || !time.Now().Before(deadline) {
			return
		}
		time.Sleep(150 * time.Millisecond)
	}
}

// awaitRecoveries waits for every restarted controller to finish peer
// state transfer and returns how many did.
func (l *liveCluster) awaitRecoveries(deadline time.Time) (recoveredCtls int) {
	c := l.c
	for _, ctl := range c.net.Domains[0].Controllers {
		if !l.ctlRestarted[fabric.NodeID(ctl.ID())] {
			continue
		}
		recovered := false
		// Poll at least once even if the drain phase exhausted the deadline:
		// a controller that already finished state transfer during the drain
		// must still be counted.
		for {
			if err := c.on(fabric.NodeID(ctl.ID()), func() { recovered = ctl.Recovered() }); err != nil {
				c.fail(err)
				break
			}
			if recovered || !time.Now().Before(deadline) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if !recovered {
			c.note("recovery-timeout", fmt.Sprintf("controller %s", ctl.ID()))
			continue
		}
		recoveredCtls++
		c.count(metrics.CounterRecovery, 1)
		c.note("recovered", fmt.Sprintf("controller %s", ctl.ID()))
	}
	return recoveredCtls
}

// awaitQuiescence polls honest controllers until no current member among
// them awaits an acknowledgement and their ledger lengths are stable
// across consecutive polls — retransmissions, trailing deliveries, resync
// retransmissions, and recovery replays drain before snapshots are taken.
// (An honest controller whose ack died in a fault window is still
// mid-plan, and it may be the only one left to vouch for the rule.)
// Stability, not cross-controller equality: a restarted controller's
// ledger legitimately differs in total length from a never-crashed peer's
// (recovery replays delivered events, not the per-update bookkeeping lost
// with the crash), and under Byzantine message loss one honest replica
// can lawfully trail another — the convergence sweep's prefix checks
// judge the content. Each controller's broadcast coordinates go to the
// trace whenever they change. It polls at least once, as awaitRecoveries
// does: a drain that spent the whole deadline still leaves each honest
// controller's state in the trace. A poll past the deadline only records;
// the verdict is the one the polls before it reached.
func (l *liveCluster) awaitQuiescence(deadline time.Time) {
	c := l.c
	var prev []int
	stable := 0
	state := make(map[pki.Identity]string)
	for {
		expired := !time.Now().Before(deadline)
		var cur []int
		unacked := 0
		for _, ctl := range c.honest() {
			if err := c.on(fabric.NodeID(ctl.ID()), func() {
				cur = append(cur, len(ctl.AuditRecords()))
				if slices.Contains(ctl.Members(), ctl.ID()) {
					unacked += ctl.Unacked()
				}
				view, ld := ctl.BroadcastCoords()
				if line := fmt.Sprintf("%s view=%d ld=%d delivered=%d unacked=%d recovering=%v recovered=%v",
					ctl.ID(), view, ld, ctl.EventsDelivered, ctl.Unacked(), ctl.Recovering(), ctl.Recovered()); line != state[ctl.ID()] {
					state[ctl.ID()] = line
					c.note("ctl-state", line)
				}
			}); err != nil {
				c.fail(err)
				return
			}
		}
		if expired {
			break
		}
		if unacked == 0 && prev != nil && slices.Equal(cur, prev) {
			if stable++; stable >= 3 {
				return
			}
		} else {
			stable = 0
		}
		prev = cur
		time.Sleep(50 * time.Millisecond)
	}
	c.fail(fmt.Errorf("chaos live: controllers did not quiesce before the drain deadline"))
}

// snapshot copies every switch table and honest controller ledger out
// through the nodes' serial contexts, noting every ledger entry in the
// trace.
func (l *liveCluster) snapshot() (Snapshot, error) {
	c := l.c
	s := Snapshot{
		Hosts:      c.hostSet,
		FlowsDone:  c.flowsDone(),
		FlowsTotal: len(c.flows),
	}
	var err error
	if s.Tables, err = c.net.Tables(); err != nil {
		return s, err
	}
	ledgers, err := c.net.Ledgers(0)
	if err != nil {
		return s, err
	}
	for i, ctl := range c.net.Domains[0].Controllers {
		id := fabric.NodeID(ctl.ID())
		if id == c.byz {
			continue // its ledger proves nothing: see honest
		}
		ledger := ledgerOf(string(id), ledgers[i], l.ctlRestarted[id])
		for k, e := range ledger.Events {
			c.note("ledger", fmt.Sprintf("%s[%d] %s %x", id, k, e.Subject, e.Digest[:6]))
		}
		s.Ledgers = append(s.Ledgers, ledger)
	}
	s.Applies, s.BatchApplies = c.applyLog()
	return s, nil
}
