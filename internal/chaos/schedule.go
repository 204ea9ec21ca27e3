package chaos

import (
	crand "crypto/rand"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/metarepo"
	"cicero/internal/metrics"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/merkle"
	"cicero/internal/tcrypto/pki"
	"cicero/internal/topology"
)

// The schedule: every fault family's timeline, drawn once from the chaos
// RNG in a fixed order — flows, crashes, partitions, Byzantine injections
// (the metadata campaign draws nothing) — and laid onto whatever clock
// the cluster provides.

// Flow is one drawn workload entry.
type Flow struct {
	ID       int
	Src, Dst string
	// Ingress is the first switch on the shortest path; "" for an
	// unroutable pair or one that needs no switch at all.
	Ingress    string
	Unroutable bool
	At         time.Duration
}

// flow tracks one flow's completion (observed on node goroutines on live
// backends).
type flow struct {
	Flow
	done atomic.Bool
}

// hostIDs returns the graph's hosts, sorted.
func hostIDs(g *topology.Graph) []string {
	var hosts []string
	for _, node := range g.NodesOfKind(topology.KindHost) {
		hosts = append(hosts, node.ID)
	}
	return hosts
}

// DrawFlows draws the workload: n random host pairs arriving uniformly
// over [0, window). Every driver draws through here, so the fault-free
// reference always sees the flows the campaign injects.
func DrawFlows(g *topology.Graph, n int, window time.Duration, rng *rand.Rand) []Flow {
	hosts := hostIDs(g)
	flows := make([]Flow, 0, n)
	for i := 0; i < n; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		f := Flow{ID: i, Src: src, Dst: dst, At: time.Duration(rng.Int63n(int64(window)))}
		if path := g.ShortestPath(src, dst); path == nil {
			f.Unroutable = true
		} else if switches := g.SwitchesOnPath(path); len(switches) > 0 {
			f.Ingress = switches[0]
		}
		flows = append(flows, f)
	}
	return flows
}

// scheduleFlows lays the drawn workload onto the timeline, driven through
// the ingress switch exactly like the core driver, with completion
// observed via rule-install subscriptions.
func (c *campaign) scheduleFlows(specs []Flow) {
	for _, spec := range specs {
		f := &flow{Flow: spec}
		c.flows = append(c.flows, f)
		c.at(f.At, func() { c.startFlow(f) })
	}
}

// startFlow fires one flow at its arrival time.
func (c *campaign) startFlow(f *flow) {
	switch {
	case f.Unroutable:
		c.note("flow-unroutable", fmt.Sprintf("flow=%d %s->%s", f.ID, f.Src, f.Dst))
	case f.Ingress == "":
		// Same-host/rack short circuit: no updates needed.
		c.complete(f, " local")
	default:
		c.note("flow-start", fmt.Sprintf("flow=%d %s->%s ingress=%s", f.ID, f.Src, f.Dst, f.Ingress))
		c.driveFlow(f)
	}
}

// complete marks a flow done, once.
func (c *campaign) complete(f *flow, suffix string) {
	if f.done.CompareAndSwap(false, true) {
		c.note("flow-done", fmt.Sprintf("flow=%d %s->%s%s", f.ID, f.Src, f.Dst, suffix))
	}
}

// flowsDone counts completed flows.
func (c *campaign) flowsDone() int {
	done := 0
	for _, f := range c.flows {
		if f.done.Load() {
			done++
		}
	}
	return done
}

// driveFlow (re)injects one flow at its ingress. Safe to call repeatedly —
// a subscription on an installed rule fires at once, table-miss events
// deduplicate per endpoint pair while outstanding, and completion is
// once-only — so live drains re-drive stalled flows through it.
func (c *campaign) driveFlow(f *flow) {
	if c.Crashed(fabric.NodeID(f.Ingress)) {
		// The ingress is down; the packet never reaches the data plane.
		c.note("flow-lost", fmt.Sprintf("flow=%d ingress %s crashed", f.ID, f.Ingress))
		return
	}
	sw := c.net.Switches[f.Ingress] // looked up per drive: restarts replace the instance
	c.fail(c.on(fabric.NodeID(f.Ingress), func() {
		sw.Subscribe(f.Src, f.Dst, func(fabric.Time) { c.complete(f, "") })
		sw.PacketArrival(f.Src, f.Dst)
	}))
}

// scheduleCrashes draws non-overlapping controller crash windows and
// switch crash windows (distinct switches may overlap each other).
// Crashes are benign faults: safety must hold for any number of them; only
// liveness needs a quorum, and the run reports incomplete flows rather
// than asserting completion.
func (c *campaign) scheduleCrashes() {
	if c.p.ControllerCrash {
		// Two sequential windows, each crashing one non-Byzantine
		// controller (the Byzantine node's faults are its own family).
		at := c.tm.ctlCrashAt.draw(c.rng)
		for i := 0; i < 2; i++ {
			victim := c.ctls[c.rng.Intn(len(c.ctls))]
			for victim == c.byz {
				victim = c.ctls[c.rng.Intn(len(c.ctls))]
			}
			dur := c.tm.ctlCrashFor.draw(c.rng)
			c.crashWindow(victim, at, dur, "controller")
			at += dur + c.tm.ctlCrashGap.draw(c.rng)
		}
	}
	if c.p.SwitchCrash {
		for _, pi := range c.rng.Perm(len(c.switches))[:2] {
			at := c.tm.swCrashAt.draw(c.rng)
			dur := c.tm.swCrashFor.draw(c.rng)
			c.crashWindow(fabric.NodeID(c.switches[pi]), at, dur, "switch")
		}
	}
}

// crashWindow schedules a crash at `at` and the restart at `at+dur`. A
// restart that fails leaves the node down for good: the seed's verdict
// would be about a different cluster, so it is a run error, not a trace
// line.
func (c *campaign) crashWindow(victim fabric.NodeID, at, dur time.Duration, kind string) {
	c.at(at, func() {
		c.Crash(victim)
		c.count(metrics.CounterCrash, 1)
		c.note("crash", fmt.Sprintf("%s %s for %v", kind, victim, dur))
	})
	c.at(at+dur, func() {
		if err := c.restart(victim); err != nil {
			c.note("restart-error", err.Error())
			c.fail(err)
			return
		}
		c.note("recover", fmt.Sprintf("%s %s", kind, victim))
	})
}

// schedulePartitions draws one controller-isolation window (set partition)
// and one asymmetric switch->controller window (acks lost one way).
func (c *campaign) schedulePartitions() {
	if !c.p.Partitions {
		return
	}
	// Isolate one controller from everyone else for a while. If a
	// Byzantine controller exists, isolate that one — total faultiness
	// stays within f.
	victim := c.byz
	if victim == "" {
		victim = c.ctls[c.rng.Intn(len(c.ctls))]
	}
	var others []fabric.NodeID
	for _, ctl := range c.ctls {
		if ctl != victim {
			others = append(others, ctl)
		}
	}
	for _, s := range c.switches {
		others = append(others, fabric.NodeID(s))
	}
	at := c.tm.partitionAt.draw(c.rng)
	dur := c.tm.partitionFor.draw(c.rng)
	c.at(at, func() {
		for _, o := range others {
			c.Partition(victim, o)
		}
		c.count("partition", 1)
		c.note("partition", fmt.Sprintf("isolate %s for %v", victim, dur))
	})
	c.at(at+dur, func() {
		for _, o := range others {
			c.Heal(victim, o)
		}
		c.note("heal", fmt.Sprintf("isolate %s", victim))
	})

	// One-way: a switch loses its path TO one controller (its events and
	// acks vanish) while updates still flow in.
	sw := fabric.NodeID(c.switches[c.rng.Intn(len(c.switches))])
	ctl := c.ctls[c.rng.Intn(len(c.ctls))]
	at2 := c.tm.partitionAt.draw(c.rng)
	dur2 := c.tm.partitionFor.draw(c.rng)
	c.at(at2, func() {
		c.PartitionOneWay(sw, ctl)
		c.count("partition-oneway", 1)
		c.note("partition-1w", fmt.Sprintf("%s -> %s for %v", sw, ctl, dur2))
	})
	c.at(at2+dur2, func() {
		c.HealOneWay(sw, ctl)
		c.note("heal-1w", fmt.Sprintf("%s -> %s", sw, ctl))
	})
}

// scheduleByzantine draws timed forged-message injections from the
// Byzantine controller: fabricated share quorums, forged pre-aggregated
// updates, and bare PACKET_OUTs (the §2.2 attack). All forgeries carry
// unique "byz/forge" update ids and garbage signatures — real
// verification must reject every one; with the canary (verification
// bypassed) they apply and the no-forged-rule invariant must fire.
func (c *campaign) scheduleByzantine() {
	if c.byz == "" {
		return
	}
	quorum := c.net.Domains[0].Controllers[0].Quorum()
	kinds := 3
	if c.p.BatchSize > 1 {
		kinds = 4 // add fabricated batch-share quorums under a forged root
	}
	const injections = 6
	for i := 0; i < injections; i++ {
		at := c.tm.byzAt.draw(c.rng)
		sw := c.switches[c.rng.Intn(len(c.switches))]
		dst := c.hosts[c.rng.Intn(len(c.hosts))]
		kind := c.rng.Intn(kinds)
		seq := uint64(i + 1)
		sig := garbageBytes(c.rng, 33)
		root := garbageBytes(c.rng, merkle.HashSize)
		shareSigs := make([][]byte, quorum)
		for j := range shareSigs {
			shareSigs[j] = garbageBytes(c.rng, 33)
		}
		c.at(at, func() {
			id := openflow.MsgID{Origin: "byz/forge", Seq: seq}
			mods := []openflow.FlowMod{{
				Op:     openflow.FlowAdd,
				Switch: sw,
				Rule: openflow.Rule{
					Priority: 50,
					Match:    openflow.Match{Src: openflow.Wildcard, Dst: dst},
					Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "byz/blackhole"},
				},
			}}
			var name string
			detail := fmt.Sprintf("->%s %s dst=%s", sw, id, dst)
			switch kind {
			case 0:
				// A full fabricated share quorum: the switch reaches its
				// share count and must fail aggregate verification.
				name = "byz-forge-shares"
				for j := 0; j < quorum; j++ {
					c.Send(c.byz, fabric.NodeID(sw), protocol.MsgUpdate{
						UpdateID:   id,
						Mods:       mods,
						Phase:      1,
						From:       "byz",
						ShareIndex: uint32(j + 1),
						Share:      shareSigs[j],
					}, 512)
				}
			case 1:
				// A forged pre-aggregated update.
				name = "byz-forge-agg"
				c.Send(c.byz, fabric.NodeID(sw), protocol.MsgAggUpdate{UpdateID: id, Mods: mods, Phase: 1, Signature: sig}, 512)
			case 2:
				// A bare PACKET_OUT: switches must drop it outright.
				name, detail = "byz-packet-out", fmt.Sprintf("->%s dst=%s", sw, dst)
				c.Send(c.byz, fabric.NodeID(sw), openflow.PacketOut{Switch: sw, Src: probeSrc, Dst: dst}, 256)
			default:
				// A fabricated batch-share quorum under a forged root (only
				// drawn when the batched hot path is on): the inclusion
				// proof must reject every copy before a single share
				// reaches the quorum pool; with the canary planted they
				// apply and both the no-forged-rule and the
				// forged-batch-proof invariants must fire.
				name = "byz-forge-batch"
				for j := 0; j < quorum; j++ {
					c.Send(c.byz, fabric.NodeID(sw), protocol.MsgBatchUpdate{
						UpdateID:   id,
						Mods:       mods,
						Phase:      1,
						From:       "byz",
						BatchRoot:  root,
						LeafIndex:  0,
						LeafCount:  1,
						ShareIndex: uint32(j + 1),
						Share:      shareSigs[j],
					}, 512)
				}
			}
			c.count(name, 1)
			c.note(name, detail)
		})
	}
}

// metaCampaign is the metadata campaign's state (zero unless the profile
// enables it).
type metaCampaign struct {
	// oldSet is the pre-change metadata set, captured for replay/splice
	// attacks.
	oldSet []protocol.MetaEnvelope
	// forge is a key no root ever delegated to: it never touches the chaos
	// RNG (key material stays out of the trace) and is never registered
	// anywhere, so every signature it mints must be rejected.
	forge *pki.KeyPair
	// attacker is the member the campaign retires mid-run.
	attacker fabric.NodeID
	// seen tracks each switch store's adopted version vector across sweeps
	// (rollback detection).
	seen map[string]metaVersions
}

const metaAttackMsgSize = 768

// scheduleMetadata drives the metadata-plane campaign: policy
// publications under load, a membership change whose reshare rotates
// the root and retires the removed member, and a Byzantine metadata
// attacker sourced from that retired controller — replayed old
// versions, withheld (replayed-stale) timestamps, snapshots spliced
// across sets, forged role keys, and (where the timing table schedules
// it) a post-reshare retired-share signature against a live root
// rotation.
func (c *campaign) scheduleMetadata() {
	if !c.p.Metadata {
		return
	}
	dom := c.net.Domains[0]
	leader := dom.Controllers[0]
	leaderID := fabric.NodeID(leader.ID())
	removed := dom.Members[len(dom.Members)-1]
	c.meta.attacker = fabric.NodeID(removed)
	c.meta.seen = make(map[string]metaVersions)

	forge, err := pki.NewKeyPair(crand.Reader, "meta/forger")
	if err != nil {
		c.fail(err)
		return
	}
	c.meta.forge = forge

	c.at(c.tm.metaPublishAt, func() {
		c.fail(c.on(leaderID, func() {
			members := make([]string, 0, len(leader.Members()))
			for _, m := range leader.Members() {
				members = append(members, string(m))
			}
			leader.PublishPolicy(metarepo.Policy{
				Phase:   leader.Phase(),
				Members: members,
				Quorum:  leader.Quorum(),
			})
		}))
		c.note("meta-publish", "initial policy")
	})

	// Capture the pre-change set once the publication has propagated.
	c.at(c.tm.metaCaptureAt, func() {
		c.fail(c.on(leaderID, func() {
			if st := leader.MetaStore(); st != nil {
				c.meta.oldSet = st.CurrentSet()
			}
		}))
	})

	// Membership change mid-campaign: proactive resharing installs fresh
	// shares, the leader rotates the root, and the removed member's role
	// key retires everywhere.
	if len(dom.Members) > 4 {
		c.at(c.tm.metaRemoveAt, func() {
			c.fail(c.on(leaderID, func() {
				if err := leader.RequestRemoveController(removed); err == nil {
					c.count("meta-remove", 1)
					c.note("meta-remove", string(removed))
				}
			}))
		})
	}

	c.at(c.tm.metaWaveAt[0], func() { c.metaAttackWave("first wave", false) })
	c.at(c.tm.metaWaveAt[1], func() { c.metaAttackWave("second wave", false) })

	// Retired-share signature: open a live root rotation and slip in a
	// BLS share minted from the pre-reshare sharing. The collector
	// verifies shares against the current Feldman commitments, so the
	// retired share must be rejected even though the group public key is
	// unchanged.
	if c.tm.metaRotateAt == 0 {
		return
	}
	c.at(c.tm.metaRotateAt, func() {
		c.fail(c.on(leaderID, func() {
			st := leader.MetaStore()
			if st == nil {
				return
			}
			cur := st.Root()
			if cur == nil {
				return
			}
			var keys []metarepo.RoleKey
			for _, m := range leader.Members() {
				pub, ok := c.net.Directory.Lookup(m)
				if !ok {
					return
				}
				keys = append(keys, metarepo.RoleKey{KeyID: string(m), Pub: append([]byte(nil), pub...)})
			}
			next := metarepo.RootAt(cur.Version+1, leader.Quorum(), keys,
				int64(c.Now()), int64(c.tm.metaDocumentTTL))
			signed := metarepo.Encode(next)
			leader.RotateRoot()
			// dom.Shares is the build-time sharing; after the in-run reshare
			// it is retired. Deliver synchronously so the collector is still
			// open (only the leader's own fresh share has arrived).
			stale := c.net.Scheme.SignShare(dom.Shares[1],
				protocol.MetaSigningBytes(protocol.MetaRoleRoot, signed))
			leader.HandleMessage(c.meta.attacker, protocol.MsgMetaShare{
				Version: next.Version, Signed: signed,
				ShareIndex: stale.Index,
				Share:      c.net.Scheme.Params.PointBytes(stale.Point),
			})
			c.count("meta-retired-share", 1)
			c.note("meta-retired-share", fmt.Sprintf("root v%d", next.Version))
		}))
	})
}

// metaAttackWave sends one round of metadata attacks to every switch:
// the replayed pre-change set, the stale freshness proof, a spliced
// snapshot, and a far-future targets document signed by a key no root
// ever delegated. replayOnly restricts the wave to the replayed set —
// the post-drain rollback probe, which must not also hand a bypassed
// store a fresh high-version document that would mask the regression.
func (c *campaign) metaAttackWave(wave string, replayOnly bool) {
	old := c.meta.oldSet
	if len(old) == 0 {
		return
	}
	envByRole := func(set []protocol.MetaEnvelope, role string) (protocol.MetaEnvelope, bool) {
		for _, env := range set {
			if env.Role == role {
				return env, true
			}
		}
		return protocol.MetaEnvelope{}, false
	}
	for _, swID := range c.switches {
		sw := fabric.NodeID(swID)
		// Replayed old versions: the full pre-change set.
		c.Send(c.meta.attacker, sw, protocol.MsgMetaSet{Envs: old}, metaAttackMsgSize)
		if replayOnly {
			continue
		}
		// Withheld timestamps, actively: keep re-serving the stale
		// freshness proof so a broken store stays frozen on it.
		if ts, ok := envByRole(old, protocol.MetaRoleTimestamp); ok {
			c.Send(c.meta.attacker, sw, protocol.MsgMeta{Env: ts}, metaAttackMsgSize)
		}
		// Spliced snapshot: the old snapshot crossed with whatever
		// targets the victim currently trusts.
		if sn, ok := envByRole(old, protocol.MetaRoleSnapshot); ok {
			splice := []protocol.MetaEnvelope{sn}
			victim := c.net.Switches[swID]
			c.fail(c.on(sw, func() {
				if st := victim.MetaStore(); st != nil {
					if tg, ok := envByRole(st.CurrentSet(), protocol.MetaRoleTargets); ok {
						splice = append(splice, tg)
					}
				}
			}))
			c.Send(c.meta.attacker, sw, protocol.MsgMetaSet{Envs: splice}, metaAttackMsgSize)
		}
		// Forged role key: a far-future targets document signed by a
		// key the root never delegated.
		signed := metarepo.Encode(metarepo.Targets{Header: metarepo.Header{
			Version:   1000,
			ExpiresNS: int64(c.Now()) + int64(c.tm.metaDocumentTTL),
		}})
		c.Send(c.meta.attacker, sw, protocol.MsgMeta{Env: protocol.MetaEnvelope{
			Role:   protocol.MetaRoleTargets,
			Signed: signed,
			Sigs:   []protocol.MetaSig{metarepo.SignRole(c.meta.forge, protocol.MetaRoleTargets, signed)},
		}}, metaAttackMsgSize)
	}
	c.count("meta-attack-wave", 1)
	c.note("meta-attack", wave)
}

// MetaTotals are a run's metadata-plane counters (zero unless the profile
// enables it): completed publications and refreshes at the leader,
// completed reshares, the highest adopted root version, retired shares
// the root collector rejected, classified store rejections summed over
// every controller and switch store, and config pushes the switches'
// metadata gate refused.
type MetaTotals struct {
	MetaPublished     uint64
	MetaRefreshes     uint64
	MetaReshares      uint64
	MetaRootVersion   uint64
	MetaStaleShares   uint64
	MetaRejects       map[string]uint64
	MetaConfigRejects uint64
}

// metaTotals reads the metadata counters off every node.
func (c *campaign) metaTotals() MetaTotals {
	var t MetaTotals
	if !c.p.Metadata {
		return t
	}
	t.MetaRejects = make(map[string]uint64)
	sumRejects := func(st *metarepo.Store) {
		for reason, count := range st.Rejections() {
			t.MetaRejects[reason] += uint64(count)
		}
	}
	for _, ctl := range c.net.Domains[0].Controllers {
		c.fail(c.on(fabric.NodeID(ctl.ID()), func() {
			t.MetaPublished += ctl.MetaPublished
			t.MetaRefreshes += ctl.MetaRefreshes
			t.MetaReshares += ctl.Reshares
			t.MetaStaleShares += ctl.MetaStaleShares
			if st := ctl.MetaStore(); st != nil {
				sumRejects(st)
				if rt := st.Root(); rt != nil && rt.Version > t.MetaRootVersion {
					t.MetaRootVersion = rt.Version
				}
			}
		}))
	}
	for _, id := range c.switches {
		sw := c.net.Switches[id]
		c.fail(c.on(fabric.NodeID(id), func() {
			t.MetaConfigRejects += sw.MetaConfigRejects
			if st := sw.MetaStore(); st != nil {
				sumRejects(st)
			}
		}))
	}
	return t
}
