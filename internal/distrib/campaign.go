package distrib

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"cicero/internal/chaos"
	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/topology"
)

// CampaignOptions configures one multi-process chaos campaign.
type CampaignOptions struct {
	// Bin is the cicero-node binary; Dir the working directory for
	// bundles, address map, logs and traces.
	Bin string
	Dir string
	// Seed drives workload draw; the simnet reference uses the same draw.
	Seed int64
	// KillController SIGKILLs a non-bootstrap controller mid-update and
	// restarts it through crash recovery; KillSwitch does the same to a
	// switch (fresh boot epoch + resync).
	KillController bool
	KillSwitch     bool
	// Partition imposes and heals a socket-level two-way partition
	// between two controllers mid-campaign.
	Partition bool
	// Timeout bounds the whole campaign (default 2 minutes).
	Timeout time.Duration
}

// CampaignResult is the campaign's verdict.
type CampaignResult struct {
	// Violations are invariant failures; empty means the run is clean.
	Violations []string
	// Flow completion.
	FlowsDone, FlowsTotal int
	// Reference convergence: quiesced multi-process tables vs the
	// fault-free simnet run of the same workload.
	TableDigest, RefDigest string
	TableMatch             bool
	// ChainDigests maps each controller to its order-sensitive audit
	// hash-chain digest at convergence (equal only between byte-identical
	// replicas); DigestAgreement means every controller quiesced on the
	// same order-insensitive ledger content digest — same decisions on
	// every process.
	ChainDigests    map[string]string
	DigestAgreement bool
	// Recovered reports the killed controller finished state transfer.
	Recovered bool
	// Trace merge across all per-process files.
	TraceEvents  int
	CausalErrors []string
	// ProcsLeaked counts node processes still alive after Close.
	ProcsLeaked int
}

func (o CampaignOptions) defaulted() CampaignOptions {
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Minute
	}
	return o
}

// SmokeGraph is the campaign's data plane: a line of four switches with
// one host each. The line keeps shortest paths unique, so the simnet
// reference digest is deterministic.
func SmokeGraph() *topology.Graph {
	g := topology.NewGraph()
	for i := 1; i <= 4; i++ {
		sw := fmt.Sprintf("s%d", i)
		host := fmt.Sprintf("h%d", i)
		g.AddNode(topology.Node{ID: sw, Kind: topology.KindToR})
		g.AddNode(topology.Node{ID: host, Kind: topology.KindHost})
		g.AddLink(sw, host, time.Millisecond, 10)
		if i > 1 {
			g.AddLink(fmt.Sprintf("s%d", i-1), sw, time.Millisecond, 10)
		}
	}
	return g
}

// flowID is the wire id of a drawn flow (flow ids on the wire start at 1).
func flowID(f chaos.Flow) uint64 { return uint64(f.ID) + 1 }

// digest32 widens a wire digest (SHA-256, but a slice on the wire) to the
// array the shared checks compare; a short one stays distinguishable.
func digest32(b []byte) (d [32]byte) {
	copy(d[:], b)
	return d
}

// campaignFlows is a campaign's workload: flows drawn over SmokeGraph's
// four hosts, served by a control plane of core's default four.
const campaignFlows = 6

// RunCampaign executes one multi-process chaos campaign: plan, launch
// one process per node, inject the workload, SIGKILL and partition per
// options, restart through the recovery paths, drain, then verify every
// invariant across the process boundaries.
func RunCampaign(opt CampaignOptions) (*CampaignResult, error) {
	opt = opt.defaulted()
	res := &CampaignResult{ChainDigests: make(map[string]string)}
	deadline := time.Now().Add(opt.Timeout)

	// The workload is the chaos plane's draw (arrival times unused: the
	// script below injects in two halves around the faults), and the
	// reference its fault-free simnet run of the same deployment shape.
	g := SmokeGraph()
	flows := chaos.DrawFlows(g, campaignFlows, time.Second, rand.New(rand.NewSource(opt.Seed)))
	res.FlowsTotal = len(flows)
	cfg := core.Config{
		Graph:       g,
		Protocol:    controlplane.ProtoCicero,
		Aggregation: controlplane.AggSwitch,
		Cost:        protocol.Calibrated(),
		Seed:        opt.Seed,
		Jitter:      0.1,
	}
	refDigest, err := chaos.ReferenceDigest(cfg, flows)
	if err != nil {
		return nil, fmt.Errorf("distrib: simnet reference: %w", err)
	}
	res.RefDigest = refDigest

	dep, err := Plan(cfg)
	if err != nil {
		return nil, err
	}
	sup, err := NewSupervisor(dep, opt.Bin, opt.Dir)
	if err != nil {
		return nil, err
	}
	defer sup.Close()

	for _, id := range dep.NodeIDs() {
		if err := sup.Start(id); err != nil {
			return nil, err
		}
	}
	if err := sup.WaitReady(dep.NodeIDs(), 30*time.Second); err != nil {
		return nil, err
	}

	// First half of the workload, then faults mid-update.
	half := len(flows) / 2
	for _, f := range flows[:half] {
		sup.InjectFlow(f.Ingress, flowID(f), f.Src, f.Dst)
	}
	killedCtl, killedSw := "", ""
	if opt.KillController {
		killedCtl = string(dep.Members[1])
		if err := sup.Kill(killedCtl); err != nil {
			return nil, err
		}
	}
	if opt.KillSwitch {
		killedSw = dep.Switches[1]
		if err := sup.Kill(killedSw); err != nil {
			return nil, err
		}
	}
	if opt.Partition {
		a, b := string(dep.Members[2]), string(dep.Members[3])
		sup.Partition(a, b)
		time.Sleep(500 * time.Millisecond)
		sup.Heal(a, b)
	}
	for _, f := range flows[half:] {
		sup.InjectFlow(f.Ingress, flowID(f), f.Src, f.Dst)
	}

	// Restart the victims through the protocol recovery paths.
	if killedCtl != "" {
		if err := sup.Restart(killedCtl); err != nil {
			return nil, err
		}
	}
	if killedSw != "" {
		if err := sup.Restart(killedSw); err != nil {
			return nil, err
		}
	}
	restarted := []string{}
	if killedCtl != "" {
		restarted = append(restarted, killedCtl)
	}
	if killedSw != "" {
		restarted = append(restarted, killedSw)
	}
	if len(restarted) > 0 {
		if err := sup.WaitReady(restarted, 30*time.Second); err != nil {
			return nil, err
		}
	}

	// Drain: re-inject incomplete flows (a killed switch lost its pending
	// events) until everything lands. What else a fault lost, the nodes
	// retransmit on their own timers.
	for round := 0; time.Now().Before(deadline); round++ {
		done := 0
		for _, f := range flows {
			if sup.FlowDone(flowID(f)) {
				done++
			}
		}
		res.FlowsDone = done
		if done == len(flows) {
			break
		}
		if round%3 == 2 {
			for _, f := range flows {
				if !sup.FlowDone(flowID(f)) {
					sup.InjectFlow(f.Ingress, flowID(f), f.Src, f.Dst)
				}
			}
		}
		time.Sleep(300 * time.Millisecond)
	}
	if res.FlowsDone != res.FlowsTotal {
		res.Violations = append(res.Violations,
			fmt.Sprintf("liveness: only %d/%d flows completed before the deadline", res.FlowsDone, res.FlowsTotal))
	}

	// The restarted controller must finish peer state transfer.
	res.Recovered = killedCtl == ""
	if killedCtl != "" {
		for time.Now().Before(deadline) {
			snap, err := sup.Snapshot(killedCtl, 5*time.Second)
			if err == nil && snap.Recovered {
				res.Recovered = true
				break
			}
			time.Sleep(200 * time.Millisecond)
		}
		if !res.Recovered {
			res.Violations = append(res.Violations,
				fmt.Sprintf("recovery: restarted controller %s never reported Recovered", killedCtl))
		}
	}

	restartedSet := make(map[string]bool)
	for _, id := range restarted {
		restartedSet[id] = true
	}

	// Quiescence: controller ledger lengths stable across three polls AND
	// equal across every never-restarted controller. Stability alone is
	// not enough: a replica that lost the pre-fault broadcasts to the
	// partition window can sit wedged with an empty — but perfectly
	// stable — ledger while the quorum makes progress. Waiting for
	// agreement gives the retransmission paths time; if a replica still
	// trails after ~2s of continuous disagreement it is wedged below a
	// delivery gap the group already garbage-collected (sequential
	// delivery can never fill it), so the supervisor pushes it through
	// peer state transfer — the same authenticated f+1 path a restarted
	// controller uses — and from then on treats it like one: prefix
	// consistency still gates, the order-insensitive content digest does
	// not (replayed processing may lawfully reuse installed rules).
	transferred := make(map[string]bool, len(restartedSet))
	for id := range restartedSet {
		transferred[id] = true
	}
	stable, lagRounds := 0, 0
	var lastLens []int
	for stable < 3 && time.Now().Before(deadline) {
		lens := make([]int, 0, len(dep.Members))
		counts := make(map[string]int, len(dep.Members))
		agreed, most := -1, 0
		agree := true
		for _, m := range dep.Members {
			snap, err := sup.Snapshot(string(m), 5*time.Second)
			if err != nil {
				lens = nil
				break
			}
			lens = append(lens, len(snap.Records))
			counts[string(m)] = len(snap.Records)
			if len(snap.Records) > most {
				most = len(snap.Records)
			}
			if transferred[string(m)] {
				continue
			}
			if agreed == -1 {
				agreed = len(snap.Records)
			} else if len(snap.Records) != agreed {
				agree = false
			}
		}
		if lens != nil && agree && slices.Equal(lens, lastLens) {
			stable++
		} else {
			stable = 0
		}
		if lens != nil && !agree {
			lagRounds++
			if lagRounds >= 8 {
				for _, m := range dep.Members {
					id := string(m)
					if !transferred[id] && counts[id] < most {
						sup.Nudge(id, protocol.NudgeRecover)
						transferred[id] = true
					}
				}
				lagRounds = 0
			}
		} else {
			lagRounds = 0
		}
		lastLens = lens
		if stable < 3 {
			time.Sleep(250 * time.Millisecond)
		}
	}

	// Convergence checks across the process boundaries.
	converge(sup, dep, res, refDigest, transferred)

	// Tear down, then merge every per-process trace into one causally
	// ordered timeline.
	sup.Close()
	res.ProcsLeaked = len(sup.LiveProcs())
	merged, err := MergeTraces(sup.TracePaths())
	if err != nil {
		return res, err
	}
	res.TraceEvents = len(merged)
	res.CausalErrors = CheckCausal(merged)
	res.Violations = append(res.Violations, res.CausalErrors...)
	return res, nil
}

// converge fills a chaos.Snapshot over snapshot messages and runs the
// shared convergence checks — data-plane walk invariants, ledger prefix
// consistency, no-forged-rule, the simnet reference digest — plus the one
// check only this backend can make: content-digest agreement across
// process boundaries. transferred marks controllers whose history came
// from peer state transfer (crash restart or a recover nudge).
func converge(sup *Supervisor, dep *Deployment, res *CampaignResult, refDigest string, transferred map[string]bool) {
	report := func(property, detail string) {
		res.Violations = append(res.Violations, property+": "+detail)
	}
	snap := chaos.Snapshot{
		Hosts:      make(map[string]bool),
		Tables:     make(map[string]*openflow.FlowTable, len(dep.Switches)),
		FlowsDone:  res.FlowsDone,
		FlowsTotal: res.FlowsTotal,
	}
	for _, n := range dep.Cfg.Graph.NodesOfKind(topology.KindHost) {
		snap.Hosts[n.ID] = true
	}

	// Switch snapshots: tables and apply records.
	for _, sw := range dep.Switches {
		ns, err := sup.Snapshot(sw, 10*time.Second)
		if err != nil {
			report("snapshot", fmt.Sprintf("switch %s: %v", sw, err))
			continue
		}
		t := openflow.NewFlowTable()
		for _, r := range ns.Rules {
			t.Add(r)
		}
		snap.Tables[sw] = t
		for _, ap := range ns.Applies {
			snap.Applies = append(snap.Applies, chaos.Apply{
				Switch: sw,
				ID:     openflow.MsgID{Origin: ap.Origin, Seq: ap.Seq},
				Phase:  ap.Phase,
				Digest: digest32(ap.Digest),
				Valid:  ap.Valid,
			})
		}
	}

	// Controller snapshots: event ledgers and audit digests.
	contents := make(map[string]string, len(dep.Members))
	for _, m := range dep.Members {
		id := string(m)
		ns, err := sup.Snapshot(id, 10*time.Second)
		if err != nil {
			report("snapshot", fmt.Sprintf("controller %s: %v", id, err))
			continue
		}
		ledger := chaos.Ledger{ID: id, Transferred: transferred[id]}
		for _, rec := range ns.Records {
			switch rec.Kind {
			case "event":
				ledger.Events = append(ledger.Events, chaos.LedgerEntry{Subject: rec.Subject, Digest: digest32(rec.Digest)})
			case "update":
				ledger.Updates = append(ledger.Updates, digest32(rec.Digest))
			}
		}
		snap.Ledgers = append(snap.Ledgers, ledger)
		contents[id] = hex.EncodeToString(ns.ContentDigest)
		res.ChainDigests[id] = hex.EncodeToString(ns.ChainDigest)
	}

	for _, v := range chaos.Converge(snap, refDigest) {
		report(v.Invariant, v.Detail)
	}
	res.TableDigest = openflow.TablesDigest(snap.Tables)
	res.TableMatch = res.TableDigest == refDigest

	// The shared checks gate the prefix shape of every pair of ledgers,
	// state-transferred controllers included. Controllers that never went
	// through peer state transfer must additionally quiesce on the same
	// order-insensitive ledger content digest: same decisions on every
	// process, even though concurrent flows interleave event and update
	// records in timing-dependent order (so the order-sensitive hash-chain
	// digest only matches between byte-identical replicas, and a lawfully
	// lagging transferred replica may hold a shorter — but
	// prefix-identical — history, with update records re-derived during
	// replay).
	res.DigestAgreement = len(snap.Ledgers) >= 2
	for i, a := range snap.Ledgers {
		for _, b := range snap.Ledgers[i+1:] {
			if a.Transferred || b.Transferred || contents[a.ID] == contents[b.ID] {
				continue
			}
			res.DigestAgreement = false
			report("content-digest", fmt.Sprintf("controllers %s and %s quiesced on different audit ledger contents (%.12s vs %.12s)",
				a.ID, b.ID, contents[a.ID], contents[b.ID]))
		}
	}
}
