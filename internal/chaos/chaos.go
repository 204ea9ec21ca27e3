// Package chaos is a fault-injection and invariant-checking engine for the
// Cicero protocol: a property-based adversarial harness. Seeded campaigns
// inject message-level faults (drop, delay, duplicate, corrupt), timed
// crash and partition schedules, and Byzantine controller behaviors, while
// checkers verify that the data plane stays consistent (blackhole- and
// loop-free, path-consistent), that honest controllers agree on one total
// order of events, and that no rule was ever installed without a matching
// quorum decision on an honest controller (no-forged-rule, the paper's
// threshold-signature safety).
//
// There is one campaign, in three pieces that each exist once: the
// schedule (schedule.go), the injector (injector.go) and the checker
// (invariants.go), all written against the small cluster seam of
// cluster.go. A backend supplies fault actuation, a clock and serialized
// node access, nothing else: the simulator (RunSeed, this file) checks
// online at every step; the live fabrics (RunLiveSeed, live.go) and the
// one-process-per-node deployment (internal/distrib) hand a quiesced
// Snapshot to Converge.
//
// Determinism on the simulator: every run is a pure function of (Profile,
// Seed). Faults are drawn from a chaos RNG derived from the seed but
// distinct from the simulator's RNG; both advance in simulator event
// order, which is itself deterministic, so the same seed reproduces the
// same fault sequence, message interleaving, and trace hash bit-for-bit
// (testdata/trace_hashes.golden pins a set of them across binaries).
// Anything that varies across runs (real key material, signature bytes,
// map iteration) is kept out of the trace.
package chaos

import (
	"fmt"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/fabric"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/topology"
)

// maxLinkDelay bounds the extra latency a delay fault adds.
const maxLinkDelay = 2 * time.Millisecond

// LinkFaults sets per-message fault probabilities applied by the network
// filter. Probabilities are independent per message.
type LinkFaults struct {
	// DropProb discards the message.
	DropProb float64
	// DupProb injects one extra copy (reordering arises naturally from
	// independent jitter on the copies).
	DupProb float64
	// DelayProb adds uniform extra latency in [0, maxLinkDelay).
	DelayProb float64
	// CorruptProb flips a payload byte of signed messages (events, acks,
	// shares, aggregates). Requires real crypto: with fake crypto a
	// corrupted-but-unauthenticated message would be accepted, which is a
	// property of the baseline, not a protocol violation.
	CorruptProb float64
}

// Profile describes one campaign configuration: topology size, workload,
// and which fault families are active.
type Profile struct {
	Name string

	// Topology/workload (single pod, single domain: cross-domain updates
	// have no global ordering, so data-plane walk invariants only hold
	// within one domain).
	RacksPerPod  int
	HostsPerRack int
	Controllers  int
	Flows        int
	// FlowWindow spreads flow arrivals uniformly over [0, FlowWindow).
	FlowWindow time.Duration

	// Fault families.
	Link LinkFaults
	// ControllerCrash schedules crash–recover windows on controllers.
	ControllerCrash bool
	// SwitchCrash schedules crash–recover windows on switches.
	SwitchCrash bool
	// Partitions schedules controller isolation and asymmetric
	// switch-to-controller partitions.
	Partitions bool
	// Byzantine designates the last controller of the domain as Byzantine:
	// its outgoing shares are mutated (garbage, wrong index, stale phase),
	// its PrePrepares equivocate, and it injects forged updates and bare
	// PACKET_OUTs at switches.
	Byzantine bool

	// Metadata enables the signed-metadata plane and its campaign: policy
	// publications under load, a mid-run membership change whose reshare
	// rotates the root of trust, and a Byzantine metadata attacker sourced
	// from the retired controller (replayed old versions, withheld
	// timestamps, spliced snapshots, forged role keys, and a retired-share
	// signature against a live rotation). The stale-policy, store-rollback
	// and store-forgery invariants sweep every store. Needs >= 5
	// controllers for the mid-run removal to stay above Cicero's floor.
	Metadata bool

	// CryptoReal runs real BLS/Ed25519 end to end. Forced on by Byzantine
	// faults, payload corruption, and the canary (they are only meaningful
	// against real verification).
	CryptoReal bool
	// CanarySkipVerify disables signature verification at every switch —
	// the built-in mutation the no-forged-rule invariant must catch.
	CanarySkipVerify bool
	// CanaryMetaBypass disables metadata verification at every switch
	// store — the built-in mutation the metadata invariants must catch:
	// the attacker's rollbacks, freezes, splices and forged keys then
	// adopt, and the stale-policy / meta-store sweeps must fire.
	CanaryMetaBypass bool

	// Budgets.
	SimBudget     time.Duration
	EventBudget   uint64
	CheckInterval time.Duration

	ViewChangeTimeout time.Duration

	// BatchSize > 1 runs the batched hot path (batched BFT ordering plus
	// batch-amortized signing with Merkle inclusion proofs) under the same
	// fault families; the Byzantine controller additionally forges batch
	// roots and splices rule content under honest proofs, and the
	// batch-proof invariant re-verifies every batched apply.
	BatchSize  int
	BatchDelay time.Duration
}

// Defaulted fills zero fields and enforces cross-field requirements.
func (p Profile) Defaulted() Profile {
	if p.RacksPerPod == 0 {
		p.RacksPerPod = 4
	}
	if p.HostsPerRack == 0 {
		p.HostsPerRack = 2
	}
	if p.Controllers == 0 {
		p.Controllers = 4
	}
	if p.Flows == 0 {
		p.Flows = 15
	}
	if p.FlowWindow == 0 {
		p.FlowWindow = 120 * time.Millisecond
	}
	if p.SimBudget == 0 {
		p.SimBudget = 400 * time.Millisecond
	}
	if p.EventBudget == 0 {
		p.EventBudget = 2_000_000
	}
	if p.CheckInterval == 0 {
		p.CheckInterval = 20 * time.Millisecond
	}
	if p.ViewChangeTimeout == 0 {
		p.ViewChangeTimeout = 15 * time.Millisecond
	}
	if p.Byzantine || p.CanarySkipVerify || p.Link.CorruptProb > 0 {
		p.CryptoReal = true
	}
	if p.Metadata && p.Controllers < 5 {
		p.Controllers = 5
	}
	return p
}

// LinksProfile exercises message-level faults only.
func LinksProfile() Profile {
	return Profile{
		Name: "links",
		Link: LinkFaults{DropProb: 0.03, DupProb: 0.03, DelayProb: 0.08},
	}
}

// CrashProfile exercises crash–recover schedules.
func CrashProfile() Profile {
	return Profile{Name: "crash", ControllerCrash: true, SwitchCrash: true}
}

// PartitionsProfile exercises set and asymmetric partitions.
func PartitionsProfile() Profile {
	return Profile{Name: "partitions", Partitions: true}
}

// ByzantineProfile exercises a Byzantine controller against real crypto.
func ByzantineProfile() Profile {
	return Profile{Name: "byzantine", Byzantine: true, CryptoReal: true}
}

// MetadataProfile exercises the signed-metadata plane against its
// Byzantine attacker: rollback replays, withheld timestamps, spliced
// snapshots, forged role keys, and retired-share signatures across a
// mid-run membership change.
func MetadataProfile() Profile {
	return Profile{Name: "metadata", Metadata: true, Controllers: 5}
}

// MixedProfile combines every fault family (the acceptance campaign).
func MixedProfile() Profile {
	return Profile{
		Name: "mixed",
		Link: LinkFaults{
			DropProb: 0.02, DupProb: 0.02, DelayProb: 0.05, CorruptProb: 0.01,
		},
		ControllerCrash: true,
		SwitchCrash:     true,
		Partitions:      true,
		Byzantine:       true,
		CryptoReal:      true,
	}
}

// ProfileByName resolves a named profile.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "links":
		return LinksProfile(), nil
	case "crash":
		return CrashProfile(), nil
	case "partitions":
		return PartitionsProfile(), nil
	case "byzantine":
		return ByzantineProfile(), nil
	case "metadata":
		return MetadataProfile(), nil
	case "mixed":
		return MixedProfile(), nil
	}
	return Profile{}, fmt.Errorf("chaos: unknown profile %q (want links, crash, partitions, byzantine, metadata, mixed)", name)
}

// SeedResult reports one seed's outcome.
type SeedResult struct {
	Seed      int64
	Profile   string
	TraceHash string
	// Violations that survived dedup, in detection order.
	Violations []Violation
	FlowsDone  int
	FlowsTotal int
	// Injected counts faults by kind (drop, dup, delay, corrupt, crash,
	// partition, byz-*).
	Injected map[string]uint64
	Net      simnet.Stats
	// Aggregate switch counters.
	UpdatesApplied  uint64
	UpdatesRejected uint64
	MetaTotals
	SimEvents uint64
	SimEnd    simnet.Time
	Err       string
	// Trace is the run's trace (campaigns drop it; a replay keeps it).
	Trace *fabric.Log
}

// campaignConfig is the deployment every backend's campaign and its
// fault-free reference share: single-domain Cicero with switch
// aggregation. fab is nil on the simulator, which also gets the latency
// jitter and the profile's (virtual-time) view-change timeout.
func campaignConfig(p Profile, g *topology.Graph, fab fabric.Fabric, seed int64) core.Config {
	cfg := core.Config{
		Graph:                g,
		Protocol:             controlplane.ProtoCicero,
		Aggregation:          controlplane.AggSwitch,
		ControllersPerDomain: p.Controllers,
		Cost:                 protocol.Calibrated(),
		CryptoReal:           p.CryptoReal,
		Seed:                 seed,
		Fabric:               fab,
		BatchSize:            p.BatchSize,
		BatchDelay:           p.BatchDelay,
	}
	if fab == nil {
		cfg.Jitter = 0.1
		cfg.ViewChangeTimeout = p.ViewChangeTimeout
	}
	return cfg
}

// withMetadata turns the metadata plane on under the backend's freshness
// regime; horizon bounds the leader's timestamp-refresh loop.
func withMetadata(cfg core.Config, p Profile, tm timing, horizon time.Duration) core.Config {
	cfg.Metadata = p.Metadata
	cfg.MetadataTTL = tm.metaDocumentTTL
	cfg.MetadataTimestampTTL = tm.metaTimestampTTL
	cfg.MetadataRefresh = tm.metaRefreshEvery
	cfg.MetadataRefreshHorizon = horizon
	return cfg
}

// buildGraph builds the profile's single-pod topology.
func buildGraph(p Profile) (*topology.Graph, error) {
	fab := topology.DefaultFabricConfig()
	fab.RacksPerPod = p.RacksPerPod
	fab.HostsPerRack = p.HostsPerRack
	return topology.BuildSinglePod(fab)
}

// RunSeed executes one seed of the profile on the simulator and returns
// its result.
func RunSeed(p Profile, seed int64) SeedResult {
	p = p.Defaulted()
	res := SeedResult{Seed: seed, Profile: p.Name}
	g, err := buildGraph(p)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	tm := simTiming(p.FlowWindow)
	c := newCampaign(p, seed, tm, hostIDs(g))
	ck := newChecker(c)

	// Refresh to the end of the budget so freshness is a live obligation
	// for the whole run. The bypass canary withholds refreshes for the
	// back half instead (the freeze attack) — modelling a withholding
	// attacker whose victim stores then sit on expired proofs while (being
	// bypassed) still claiming freshness, which the stale-policy sweep
	// must catch.
	horizon := p.SimBudget
	if p.CanaryMetaBypass {
		horizon = p.SimBudget / 2
	}
	cfg := withMetadata(campaignConfig(p, g, nil, seed), p, tm, horizon)
	cfg.SwitchApplyHook = ck.onApply
	cfg.SwitchBatchHook = ck.onBatchApply
	n, err := core.Build(cfg)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	n.Sim.MaxEvents = p.EventBudget
	c.attach(simCluster{n.Net}, newRecorder(n.Sim.Now), n)
	c.plantCanaries()

	// Draw the deterministic timeline before the run starts: flows first,
	// then fault schedules, then Byzantine injections — a fixed consumption
	// order on the chaos RNG, which the filter then shares.
	c.scheduleFlows(DrawFlows(g, p.Flows, tm.flowWindow, c.rng))
	c.scheduleCrashes()
	c.schedulePartitions()
	c.scheduleByzantine()
	c.scheduleMetadata()
	n.Net.SetFilter((&injector{c: c, rng: c.rng}).filter)

	// Online invariant sweep.
	var tick func()
	tick = func() {
		ck.sweep()
		if n.Sim.Now()+p.CheckInterval <= p.SimBudget {
			n.Sim.Schedule(p.CheckInterval, tick)
		}
	}
	n.Sim.Schedule(p.CheckInterval, tick)

	if _, err := n.Sim.RunUntil(p.SimBudget); err != nil {
		c.fail(err)
	}
	// Final sweep over the quiesced (or budget-bounded) state.
	ck.sweep()

	res.TraceHash = c.trace.Hash()
	res.Violations = c.found.list
	res.FlowsDone = c.flowsDone()
	res.FlowsTotal = len(c.flows)
	res.Injected = c.counter.Map()
	res.Net = n.Net.Stats()
	for _, id := range c.switches {
		sw := n.Switches[id]
		res.UpdatesApplied += sw.UpdatesApplied
		res.UpdatesRejected += sw.UpdatesRejected
	}
	res.MetaTotals = c.metaTotals()
	res.SimEvents = n.Sim.Processed()
	res.SimEnd = n.Sim.Now()
	res.Err = c.err
	res.Trace = c.trace
	return res
}
