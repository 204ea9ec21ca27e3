// Wall-clock chaos: the campaign profiles executed on the live backends
// (internal/livenet) instead of the simulator. The same fault families —
// message drop/delay/duplication/corruption, crash windows, partitions,
// and a Byzantine controller — inject through the fabric fault plane
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
	"math/rand"
	"slices"
	"sort"
	"time"

	"cicero/internal/core"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/metrics"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/pki"
)

// LiveOptions tunes a wall-clock campaign run.
type LiveOptions struct {
	// Backend selects "inproc" or "tcp".
	Backend string
	// Seed drives workload and fault-schedule drawing (and the simnet
	// reference). Live runs are not bit-reproducible — the seed fixes what
	// is injected, not how it interleaves.
	Seed int64
	// FlowWindow spreads flow arrivals over [0, FlowWindow) wall time;
	// fault windows scale from it.
	FlowWindow time.Duration
	// DrainTimeout bounds the post-fault drain phase (re-driving stalled
	// flows, awaiting recoveries and quiescence).
	DrainTimeout time.Duration
}

const (
	// liveViewChangeTimeout is the live controllers' view-change timeout.
	// Wall-clock runs share cores with the whole harness (and the race
	// detector in CI), so this must dwarf scheduling hiccups; it still has
	// to be small enough that a crashed primary is replaced within the
	// drain budget.
	liveViewChangeTimeout = 2 * time.Second
	// Canary runs withhold refreshes and shorten the proof lifetime so
	// the freeze becomes observable before the post-drain sweep: the
	// probe settle strictly exceeds TTL + grace, so a frozen store is
	// always past expiry by the time the sweep reads it.
	liveMetaCanaryTTL   = 300 * time.Millisecond
	liveMetaProbeSettle = 500 * time.Millisecond
)

// Defaulted fills zero fields.
func (o LiveOptions) Defaulted() LiveOptions {
	if o.Backend == "" {
		o.Backend = "inproc"
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FlowWindow == 0 {
		o.FlowWindow = 400 * time.Millisecond
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 45 * time.Second
	}
	return o
}

// LiveResult is one live campaign run's outcome.
type LiveResult struct {
	Profile string
	Backend string
	Seed    int64

	FlowsDone  int
	FlowsTotal int
	// Violations are the convergence-check failures (empty on a healthy
	// run; non-empty expected under the canary).
	Violations []Violation
	// Injected counts injected faults plus transport-resilience events
	// under the canonical metrics names.
	Injected map[string]uint64
	Net      fabric.Stats
	// Resilience snapshots the backend's retry/reconnect layer.
	Resilience livenet.ResilienceStats

	// CtlRestarts / CtlRecovered: controller processes rebuilt after a
	// crash window, and how many completed peer-state recovery.
	CtlRestarts  int
	CtlRecovered int
	// SwitchRestarts: switch processes rebuilt (empty table + resync).
	SwitchRestarts int
	// ResyncProven: every restarted controller's event ledger was
	// byte-identical to some never-crashed honest peer's at quiescence.
	// Expected true for benign fault profiles; under Byzantine message
	// loss a lawful delivery lag can leave it false (prefix consistency,
	// the safety property, is still enforced via InvResync).
	ResyncProven bool
	// TableMatch: final flow tables matched the fault-free simnet
	// reference (only meaningful when FlowsDone == FlowsTotal and no
	// canary is planted).
	TableMatch  bool
	TableDigest string

	UpdatesApplied  uint64
	UpdatesRejected uint64
	MetaTotals

	Wall time.Duration
	// Err is the first harness error: a node that never answered, a
	// restart that failed, a cluster that never quiesced. The verdict of
	// a run with an Err cannot be trusted.
	Err   string
	Trace *fabric.Log
}

// liveEvent is one entry of the wall-clock fault/workload timeline.
type liveEvent struct {
	at time.Duration
	fn func()
}

// liveCluster is the wall-clock backend: faults actuate on a livenet
// fabric, scheduled functions queue on a timeline the driver goroutine
// runs, and node state is only touched through the fabric's serial
// contexts.
type liveCluster struct {
	livenet.Live
	net    *core.Network
	rec    *recorder
	events []liveEvent
	// ctlRestarted / swRestarted: nodes rebuilt after a crash window.
	ctlRestarted map[fabric.NodeID]bool
	swRestarted  map[fabric.NodeID]bool
}

func (l *liveCluster) at(d time.Duration, fn func()) {
	l.events = append(l.events, liveEvent{d, fn})
}

// restart revives the machine on the fabric (a crash purged its mailbox
// and severed its sockets), then rebuilds the process.
func (l *liveCluster) restart(id fabric.NodeID) error {
	l.Restart(id)
	if slot := slices.Index(l.net.Domains[0].Members, pki.Identity(id)); slot >= 0 {
		if _, err := l.net.RestartController(0, slot); err != nil {
			return err
		}
		l.ctlRestarted[id] = true
	} else {
		if _, err := l.net.RestartSwitch(string(id)); err != nil {
			return err
		}
		l.swRestarted[id] = true
	}
	l.rec.count(metrics.CounterRestart, 1)
	return nil
}

// runTimeline executes the scheduled events in wall-clock order on the
// driver goroutine.
func (l *liveCluster) runTimeline() {
	sort.SliceStable(l.events, func(i, j int) bool { return l.events[i].at < l.events[j].at })
	start := time.Now()
	for _, ev := range l.events {
		if wait := ev.at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		ev.fn()
	}
}

// liveRun is one live campaign: the shared campaign plus what only the
// wall-clock driver needs. All orchestration (timeline, drain, snapshots)
// happens on the single driver goroutine.
type liveRun struct {
	*campaign
	lc *liveCluster
	// verbose retains the debugging trace a replay prints: the BFT tap,
	// controller state as the drain awaits quiescence, and the snapshotted
	// ledgers.
	verbose bool
}

// RunLiveSeed executes one wall-clock campaign of the profile on a live
// backend: inject over the fault window, heal and restart everything,
// drain, then run the convergence checks.
func RunLiveSeed(p Profile, opt LiveOptions) LiveResult { return runLive(p, opt, false) }

// ReplayLiveSeed is RunLiveSeed with the full debugging trace retained:
// every broadcast message, the controllers' broadcast coordinates each time
// they change while the drain awaits quiescence, and every snapshotted
// ledger entry. Live runs are not bit-reproducible, so a replay re-rolls
// the interleaving — it reproduces what was injected, not how it raced.
func ReplayLiveSeed(p Profile, opt LiveOptions) LiveResult { return runLive(p, opt, true) }

func runLive(p Profile, opt LiveOptions, verbose bool) (res LiveResult) {
	p = p.Defaulted()
	opt = opt.Defaulted()
	res = LiveResult{Profile: p.Name, Backend: opt.Backend, Seed: opt.Seed}
	wallStart := time.Now()
	defer func() { res.Wall = time.Since(wallStart) }()

	g, err := buildGraph(p)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	tm := liveTiming(opt.FlowWindow)
	c := newCampaign(p, opt.Seed, tm, hostIDs(g))

	// Draw the workload first (fixed RNG consumption order, like the
	// simulated campaigns), so the fault-free reference sees the exact
	// same flows. The reference does not pay for real crypto (the compared
	// digests are crypto-independent) and runs no metadata plane.
	specs := DrawFlows(g, p.Flows, tm.flowWindow, c.rng)
	refCfg := campaignConfig(p, g, nil, opt.Seed)
	refCfg.CryptoReal = false
	refDigest, err := ReferenceDigest(refCfg, specs)
	if err != nil {
		res.Err = fmt.Sprintf("simnet reference: %v", err)
		return res
	}

	fab, err := livenet.Open(opt.Backend, protocol.NewWireCodec(nil))
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer fab.Close()
	rec := newRecorder(fab.Now)

	cfg := campaignConfig(p, g, fab, opt.Seed)
	cfg.CryptoReal = true // live runs always pay for real crypto
	cfg.ViewChangeTimeout = liveViewChangeTimeout
	if verbose {
		// The replay's tap: every broadcast message a node sends, before
		// the injector adjudicates it.
		cfg.Fabric = fabric.Tap(fab, func(kind string, from, to fabric.NodeID, msg fabric.Message) {
			if m, ok := msg.(protocol.MsgBFT); ok && kind == fabric.TapSend {
				rec.note("bft", fmt.Sprintf("%s->%s %s", from, to, bftString(m)))
			}
		})
	}
	if p.Metadata {
		// Refresh forever normally; the bypass canary disables the refresh
		// loop entirely — the withholding freeze — so bypassed stores end
		// up claiming freshness on expired proofs, with short-lived proofs
		// so the freeze is observable within the run: the last mint
		// expires before the post-drain sweep.
		cfg = withMetadata(cfg, p, tm, -1)
		if p.CanaryMetaBypass {
			cfg.MetadataRefreshHorizon = 0
			cfg.MetadataTimestampTTL = liveMetaCanaryTTL
		}
	}
	cfg.SwitchApplyHook = func(sw string, id openflow.MsgID, phase uint64, mods []openflow.FlowMod, valid bool) {
		rec.onApply(sw, id, phase, mods, valid)
	}
	cfg.SwitchBatchHook = func(sw string, m protocol.MsgBatchUpdate, valid bool) {
		rec.onBatchApply(sw, m, valid)
	}
	net, err := core.Build(cfg)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	lc := &liveCluster{Live: fab, net: net, rec: rec,
		ctlRestarted: make(map[fabric.NodeID]bool), swRestarted: make(map[fabric.NodeID]bool)}
	c.attach(lc, rec, net)
	lr := &liveRun{campaign: c, lc: lc, verbose: verbose}

	if c.plantCanaries(); c.err != "" {
		res.Err = c.err
		return res
	}

	// Install the injector before any traffic, then lay out the wall-clock
	// timeline in the same draw order as the simulated campaigns. The
	// filter runs on sender goroutines, so it draws from its own RNG.
	inj := &injector{c: c, rng: rand.New(rand.NewSource(opt.Seed ^ chaosSeedSalt ^ 0x11fe))}
	fab.SetFilter(inj.filter)
	defer fab.SetFilter(nil)

	c.scheduleFlows(specs)
	c.scheduleCrashes()
	c.schedulePartitions()
	c.scheduleByzantine()
	c.scheduleMetadata()
	lc.runTimeline()

	// Every fault is now healed and every crashed node restarted: drain.
	// The drain is a recovery policy, not a quiescence test, and stays
	// this backend's own: a crash purges a mailbox and severs sockets, the
	// messages lost there are counted nowhere, and the fabric's books never
	// balance again — core.Network.Settle's rule does not apply.
	drainDeadline := time.Now().Add(opt.DrainTimeout)
	lr.drainFlows(drainDeadline)
	res.CtlRecovered = lr.awaitRecoveries(drainDeadline)
	lr.awaitQuiescence(drainDeadline)

	// Convergence: the shared checks over a quiesced snapshot. The
	// reference comparison is meaningless under the canary, which plants
	// forged rules.
	if s, err := lr.snapshot(&res); err != nil {
		c.fail(err)
	} else {
		ref := refDigest
		if p.CanarySkipVerify {
			ref = ""
		}
		for _, v := range Converge(s, ref) {
			c.report(v.Invariant, v.Detail, v.Detail, v.token)
		}
		res.ResyncProven = s.ResyncProven()
		res.TableDigest = openflow.TablesDigest(s.Tables)
		res.TableMatch = res.TableDigest == refDigest
	}
	if p.Metadata {
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
	res.MetaTotals = c.metaTotals()

	res.FlowsTotal = len(c.flows)
	res.FlowsDone = c.flowsDone()
	res.Violations = c.found.list
	res.CtlRestarts = len(lc.ctlRestarted)
	res.SwitchRestarts = len(lc.swRestarted)
	res.Net = fab.Stats()
	res.Resilience = fab.Resilience()
	c.count(metrics.CounterRetry, res.Resilience.Retries)
	c.count(metrics.CounterReconnect, res.Resilience.Reconnects)
	res.Trace = rec.trace
	rec.mu.Lock()
	res.Injected = rec.counter.Map()
	rec.mu.Unlock()
	res.Err = c.err
	return res
}

// drainFlows re-drives stalled flows until all complete or the deadline
// passes. Re-driving is cheap and idempotent, and it is all the drain
// does: an event or update a fault window lost, the switches and
// controllers retransmit on their own timers.
func (lr *liveRun) drainFlows(deadline time.Time) {
	for {
		stalled := 0
		for _, f := range lr.flows {
			if !f.done.Load() && !f.Unroutable {
				stalled++
				lr.driveFlow(f)
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
func (lr *liveRun) awaitRecoveries(deadline time.Time) (recoveredCtls int) {
	for _, ctl := range lr.net.Domains[0].Controllers {
		if !lr.lc.ctlRestarted[fabric.NodeID(ctl.ID())] {
			continue
		}
		recovered := false
		// Poll at least once even if the drain phase exhausted the deadline:
		// a controller that already finished state transfer during the drain
		// must still be counted.
		for {
			if err := lr.on(fabric.NodeID(ctl.ID()), func() { recovered = ctl.Recovered() }); err != nil {
				lr.fail(err)
				break
			}
			if recovered || !time.Now().Before(deadline) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if !recovered {
			lr.note("recovery-timeout", fmt.Sprintf("controller %s", ctl.ID()))
			continue
		}
		recoveredCtls++
		lr.count(metrics.CounterRecovery, 1)
		lr.note("recovered", fmt.Sprintf("controller %s", ctl.ID()))
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
// judge the content.
func (lr *liveRun) awaitQuiescence(deadline time.Time) {
	var prev []int
	stable := 0
	state := make(map[pki.Identity]string)
	for time.Now().Before(deadline) {
		var cur []int
		unacked := 0
		for _, ctl := range lr.honest() {
			if err := lr.on(fabric.NodeID(ctl.ID()), func() {
				cur = append(cur, len(ctl.AuditRecords()))
				if slices.Contains(ctl.Members(), ctl.ID()) {
					unacked += ctl.Unacked()
				}
				if lr.verbose {
					view, ld := ctl.BroadcastCoords()
					if line := fmt.Sprintf("%s view=%d ld=%d delivered=%d unacked=%d recovering=%v recovered=%v",
						ctl.ID(), view, ld, ctl.EventsDelivered, ctl.Unacked(), ctl.Recovering(), ctl.Recovered()); line != state[ctl.ID()] {
						state[ctl.ID()] = line
						lr.note("ctl-state", line)
					}
				}
			}); err != nil {
				lr.fail(err)
				return
			}
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
	lr.fail(fmt.Errorf("chaos live: controllers did not quiesce before the drain deadline"))
}

// snapshot copies every switch table and honest controller ledger out
// through the nodes' serial contexts, and folds the switch counters into
// res.
func (lr *liveRun) snapshot(res *LiveResult) (Snapshot, error) {
	s := Snapshot{
		Hosts:      lr.hostSet,
		FlowsDone:  lr.flowsDone(),
		FlowsTotal: len(lr.flows),
	}
	var err error
	if s.Tables, err = lr.net.Tables(); err != nil {
		return s, err
	}
	for _, id := range lr.switches {
		sw := lr.net.Switches[id]
		if err := lr.on(fabric.NodeID(id), func() {
			res.UpdatesApplied += sw.UpdatesApplied
			res.UpdatesRejected += sw.UpdatesRejected
		}); err != nil {
			return s, err
		}
	}
	ledgers, err := lr.net.Ledgers(0)
	if err != nil {
		return s, err
	}
	for i, ctl := range lr.net.Domains[0].Controllers {
		id := fabric.NodeID(ctl.ID())
		if id == lr.byz {
			continue // its ledger proves nothing: see honest
		}
		l := ledgerOf(string(id), ledgers[i], lr.lc.ctlRestarted[id])
		if lr.verbose {
			for k, e := range l.Events {
				lr.note("ledger", fmt.Sprintf("%s[%d] %s %x", id, k, e.Subject, e.Digest[:6]))
			}
		}
		s.Ledgers = append(s.Ledgers, l)
	}
	s.Applies, s.BatchApplies = lr.applyLog()
	return s, nil
}
