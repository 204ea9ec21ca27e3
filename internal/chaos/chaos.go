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
// node access, nothing else. One runner (RunSeed, this file) sets a seed up
// and fills its result on every backend; only the drive step differs: the
// simulator checks online at every step, the live fabrics (live.go) and the
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
	"math/rand"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/protocol"
	"cicero/internal/topology"
)

const (
	// maxLinkDelay bounds the extra latency a delay fault adds.
	maxLinkDelay = 2 * time.Millisecond
	// hostsPerRack is the host endpoints under each rack's ToR.
	hostsPerRack = 2
	// simViewChangeTimeout is the simulated controllers' view-change
	// timeout (a live backend uses liveViewChangeTimeout).
	simViewChangeTimeout = 15 * time.Millisecond
	// simEventBudget caps the events one simulated run may process.
	simEventBudget = 2_000_000
	// simCheckInterval is the simulated time between online sweeps.
	simCheckInterval = 20 * time.Millisecond
)

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

// Profile describes one campaign configuration: the backend, topology
// size, workload, and which fault families are active.
type Profile struct {
	Name string
	// Backend is where a seed runs: "" is the simulator, "inproc" or "tcp"
	// a live backend (internal/livenet) on the wall clock. Live runs are
	// not bit-reproducible: the seed fixes what is injected, not how it
	// interleaves.
	Backend string

	// Topology/workload (single pod, single domain: cross-domain updates
	// have no global ordering, so data-plane walk invariants only hold
	// within one domain).
	RacksPerPod int
	Controllers int
	Flows       int
	// FlowWindow spreads flow arrivals uniformly over [0, FlowWindow):
	// simulated time on the simulator, wall time on a live backend, where
	// the fault windows scale from it.
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
	// faults, payload corruption, the switch canary (they are only
	// meaningful against real verification) and a live backend.
	CryptoReal bool
	// Canary plants the built-in mutation the checker must catch; which
	// one follows Metadata. Without it, signature verification is disabled
	// at every switch (the switch canary): forged updates then apply, and
	// no-forged-rule or forged-batch-proof must fire. With it, metadata
	// verification is disabled at every switch store (the store canary):
	// the attacker's rollbacks, freezes, splices and forged keys then
	// adopt, and the stale-policy / meta-store sweeps must fire.
	// CanaryCaught is the verdict.
	Canary bool

	// SimBudget bounds the simulated time of a run.
	SimBudget time.Duration
	// DrainTimeout bounds a live run's post-fault drain: re-driving
	// stalled flows, awaiting recoveries and quiescence.
	DrainTimeout time.Duration

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
	if p.Controllers == 0 {
		p.Controllers = 4
	}
	if p.Flows == 0 {
		p.Flows = 15
	}
	if p.FlowWindow == 0 {
		p.FlowWindow = 120 * time.Millisecond
		if p.Backend != "" {
			p.FlowWindow = 400 * time.Millisecond
		}
	}
	if p.SimBudget == 0 {
		p.SimBudget = 400 * time.Millisecond
	}
	if p.DrainTimeout == 0 {
		p.DrainTimeout = 45 * time.Second
	}
	if p.Byzantine || p.switchCanary() || p.Link.CorruptProb > 0 || p.Backend != "" {
		p.CryptoReal = true
	}
	if p.Metadata && p.Controllers < 5 {
		p.Controllers = 5
	}
	return p
}

// switchCanary and storeCanary name the mutation Canary plants.
func (p Profile) switchCanary() bool { return p.Canary && !p.Metadata }
func (p Profile) storeCanary() bool  { return p.Canary && p.Metadata }

// CanaryCaught reports whether v catches the profile's canary: the switch
// canary only on no-forged-rule or forged-batch-proof, the store canary
// only on meta-store-rollback, meta-store-forged or stale-policy. Any
// other violation (a bft-agreement split, say) is no evidence that the
// checker saw the planted mutation.
func (p Profile) CanaryCaught(v Violation) bool {
	switch v.Invariant {
	case InvNoForgedRule, InvBatchProof:
		return p.switchCanary()
	case InvMetaRollback, InvMetaForged, InvStalePolicy:
		return p.storeCanary()
	}
	return false
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

// SeedResult reports one seed's outcome on any backend.
type SeedResult struct {
	Seed      int64
	Profile   string
	TraceHash string
	// Violations that survived dedup, in detection order.
	Violations []Violation
	FlowsDone  int
	FlowsTotal int
	// Injected counts faults by kind (drop, dup, delay, corrupt, crash,
	// partition, byz-*), plus transport-resilience and recovery events
	// under the canonical metrics names on a live backend.
	Injected map[string]uint64
	Net      fabric.Stats
	// Aggregate switch counters.
	UpdatesApplied  uint64
	UpdatesRejected uint64
	MetaTotals
	// SimEvents counts the simulator's processed events (0 on a live
	// backend).
	SimEvents uint64

	// What only a live backend's convergence run reports.
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
	// switch canary is planted).
	TableMatch  bool
	TableDigest string

	Wall time.Duration
	// Err is the first harness error: an event budget run out, a node
	// that never answered, a restart that failed, a cluster that never
	// quiesced. The verdict of a run with an Err cannot be trusted.
	Err string
	// Trace is the run's trace (campaigns drop it; a replay keeps it). On
	// a live backend it also holds the debugging records a replay prints:
	// every broadcast message ("bft"), the controllers' broadcast
	// coordinates each time they change while the drain awaits quiescence
	// ("ctl-state"), and every snapshotted ledger entry ("ledger").
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
		cfg.ViewChangeTimeout = simViewChangeTimeout
	}
	return cfg
}

// withMetadata turns the metadata plane on under the backend's freshness
// regime, frozen under the store canary.
func withMetadata(cfg core.Config, p Profile, tm timing) core.Config {
	cfg.Metadata = p.Metadata
	cfg.MetadataTTL = tm.metaDocumentTTL
	cfg.MetadataTimestampTTL = tm.metaTimestampTTL
	cfg.MetadataRefresh = tm.metaRefreshEvery
	cfg.MetadataRefreshHorizon = tm.metaRefreshFor
	if p.storeCanary() {
		cfg.MetadataTimestampTTL = tm.metaCanaryTimestampTTL
		cfg.MetadataRefreshHorizon = tm.metaCanaryRefreshFor
	}
	return cfg
}

// buildGraph builds the profile's single-pod topology.
func buildGraph(p Profile) (*topology.Graph, error) {
	fab := topology.DefaultFabricConfig()
	fab.RacksPerPod = p.RacksPerPod
	fab.HostsPerRack = hostsPerRack
	return topology.BuildSinglePod(fab)
}

// RunSeed executes one seed of the profile on p.Backend and returns its
// result. The set-up and the result are the same on every backend; only
// the drive step differs. The simulator runs its event loop with the
// online sweeps. A live backend runs the wall-clock timeline, heals and
// drains, and judges a quiesced snapshot with Converge (live.go).
func RunSeed(p Profile, seed int64) (res SeedResult) {
	p = p.Defaulted()
	res = SeedResult{Seed: seed, Profile: p.Name}
	start := time.Now()
	defer func() { res.Wall = time.Since(start) }()
	g, err := buildGraph(p)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	tm := simTiming(p.FlowWindow, p.SimBudget)
	if p.Backend != "" {
		tm = liveTiming(p.FlowWindow)
	}
	c := newCampaign(p, seed, tm, hostIDs(g))
	// Draw the workload first: a fixed consumption order on the chaos RNG
	// (flows, then the fault schedules, then the Byzantine injections),
	// which the simulator's filter then shares.
	specs := DrawFlows(g, p.Flows, tm.flowWindow, c.rng)

	cfg := withMetadata(campaignConfig(p, g, nil, seed), p, tm)
	cfg.SwitchApplyHook = c.applied
	cfg.SwitchBatchHook = c.batchApplied
	var lc *liveCluster // nil on the simulator
	if p.Backend != "" {
		fab, err := livenet.Open(p.Backend, protocol.NewWireCodec(nil))
		if err != nil {
			res.Err = err.Error()
			return res
		}
		defer fab.Close()
		lc = newLiveCluster(fab, c)
		// Nodes send from the moment they boot, so the recorder runs on
		// the fabric's clock before the build.
		c.recorder = newRecorder(fab.Now)
		cfg.Fabric = fabric.Tap(fab, c.tapBFT)
		cfg.ViewChangeTimeout = liveViewChangeTimeout
	}
	net, err := core.Build(cfg)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if lc == nil {
		net.Sim.MaxEvents = simEventBudget
		c.recorder = newRecorder(net.Sim.Now)
		c.online = newChecker(c)
		c.attach(simCluster{net.Net}, net)
	} else {
		c.attach(lc, net)
	}
	if c.plantCanary(); c.err != "" {
		res.Err = c.err
		return res
	}

	// Install the injector before the timeline. On the simulator it draws
	// from the schedule's own stream in event order; on a live backend it
	// runs on sender goroutines, so it draws from its own.
	filterRNG := c.rng
	if lc != nil {
		filterRNG = rand.New(rand.NewSource(seed ^ chaosSeedSalt ^ 0x11fe))
	}
	c.SetFilter((&injector{c: c, rng: filterRNG}).filter)
	defer c.SetFilter(nil)
	c.scheduleFlows(specs)
	c.scheduleCrashes()
	c.schedulePartitions()
	c.scheduleByzantine()
	c.scheduleMetadata()

	if lc == nil {
		c.online.drive()
	} else {
		lc.drive(&res)
	}

	res.TraceHash = c.trace.Hash()
	res.Violations = c.found.list
	res.FlowsDone = c.flowsDone()
	res.FlowsTotal = len(c.flows)
	res.Net = net.Fab.Stats()
	for _, id := range c.switches {
		sw := net.Switches[id]
		c.fail(c.on(fabric.NodeID(id), func() {
			res.UpdatesApplied += sw.UpdatesApplied
			res.UpdatesRejected += sw.UpdatesRejected
		}))
	}
	res.MetaTotals = c.metaTotals()
	if net.Sim != nil {
		res.SimEvents = net.Sim.Processed()
	}
	c.mu.Lock()
	res.Injected = c.counter.Map()
	c.mu.Unlock()
	res.Err = c.err
	res.Trace = c.trace
	return res
}
