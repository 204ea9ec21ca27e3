package chaos

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/fabric"
	"cicero/internal/metrics"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/merkle"
)

// cluster is the seam between the campaign and the backend it runs on.
// The schedule, the injector and the checkers are written once against
// it; a backend supplies fault actuation and a clock to schedule on —
// nothing else. Node state is reached through core.Network (campaign.on),
// the same way on every backend.
type cluster interface {
	// The transport and fault plane, under the names simnet.Network and
	// the livenet backends already share.
	Now() fabric.Time
	Send(from, to fabric.NodeID, msg fabric.Message, size int)
	Crash(id fabric.NodeID)
	Crashed(id fabric.NodeID) bool
	Partition(a, b fabric.NodeID)
	Heal(a, b fabric.NodeID)
	PartitionOneWay(from, to fabric.NodeID)
	HealOneWay(from, to fabric.NodeID)

	// at schedules fn at offset d from the start of the run: a simulator
	// event on simnet, an entry of the wall-clock timeline on live
	// backends. Scheduled functions never run concurrently.
	at(d time.Duration, fn func())
	// restart ends a crash window. The simulator clears the crash flag
	// (state survives, as in a network outage); live backends revive the
	// machine and rebuild the process with empty volatile state, kicking
	// off recovery (controllers: peer state transfer; switches: table
	// resync).
	restart(node fabric.NodeID) error
}

// simCluster is the simulator backend: everything runs on the event loop.
type simCluster struct{ *simnet.Network }

func (s simCluster) at(d time.Duration, fn func())  { s.Sim().At(d, fn) }
func (s simCluster) restart(id fabric.NodeID) error { s.Recover(id); return nil }

// window is one scheduled delay: base plus a uniform draw in [0, jitter).
type window struct{ base, jitter time.Duration }

func (w window) draw(rng *rand.Rand) time.Duration {
	return w.base + time.Duration(rng.Int63n(int64(w.jitter)))
}

// timing is the table of time literals a backend runs the one schedule
// with: simulated milliseconds on simnet, fractions of the wall-clock flow
// window on live backends. These are constants chosen by backend, not
// options.
type timing struct {
	flowWindow time.Duration

	ctlCrashAt, ctlCrashFor, ctlCrashGap window
	swCrashAt, swCrashFor                window
	partitionAt, partitionFor            window
	byzAt                                window

	metaPublishAt, metaCaptureAt, metaRemoveAt time.Duration
	metaWaveAt                                 [2]time.Duration
	// metaRotateAt schedules the retired-share probe; zero skips it.
	metaRotateAt time.Duration
	// The freshness regime: document and proof lifetimes, the leader's
	// re-mint period, and the slack the stale-policy sweep grants for
	// multicast latency.
	metaDocumentTTL, metaTimestampTTL, metaRefreshEvery, metaStaleGrace time.Duration
}

// simTiming is the simulator's table. Freshness proofs live 40ms and the
// leader re-mints every 15ms, so an honest store is never more than one
// missed refresh from expiry while a frozen one expires well inside the
// run. The membership removal precedes the first attack wave, and the
// retired-share probe follows the reshare it depends on.
func simTiming(flowWindow time.Duration) timing {
	const ms = time.Millisecond
	return timing{
		flowWindow:       flowWindow,
		ctlCrashAt:       window{20 * ms, 20 * ms},
		ctlCrashFor:      window{10 * ms, 20 * ms},
		ctlCrashGap:      window{10 * ms, 30 * ms},
		swCrashAt:        window{15 * ms, 60 * ms},
		swCrashFor:       window{5 * ms, 15 * ms},
		partitionAt:      window{25 * ms, 40 * ms},
		partitionFor:     window{15 * ms, 30 * ms},
		byzAt:            window{10 * ms, flowWindow},
		metaPublishAt:    8 * ms,
		metaCaptureAt:    20 * ms,
		metaRemoveAt:     30 * ms,
		metaWaveAt:       [2]time.Duration{55 * ms, 80 * ms},
		metaRotateAt:     65 * ms,
		metaDocumentTTL:  time.Hour,
		metaTimestampTTL: 40 * ms,
		metaRefreshEvery: 15 * ms,
		metaStaleGrace:   40 * ms, // one extra TTL
	}
}

// liveTiming is the wall-clock table: fault windows scale from the flow
// window fw. Freshness proofs live two seconds and the leader re-mints
// well inside that, so an honest store never expires while a frozen one
// does within the drain budget. The removal falls between the two attack
// waves, after which the retired member's replayed envelopes classify as
// retired-key rejections; how long its reshare takes on a wall clock is
// not known in advance, so the retired-share probe stays simulator-only.
func liveTiming(fw time.Duration) timing {
	return timing{
		flowWindow:       fw,
		ctlCrashAt:       window{fw / 8, fw / 8},
		ctlCrashFor:      window{fw / 4, fw / 4},
		ctlCrashGap:      window{fw / 8, fw / 4},
		swCrashAt:        window{fw / 8, fw / 2},
		swCrashFor:       window{fw / 8, fw / 4},
		partitionAt:      window{fw / 4, fw / 4},
		partitionFor:     window{fw / 8, fw / 4},
		byzAt:            window{10 * time.Millisecond, fw},
		metaPublishAt:    2 * time.Millisecond,
		metaCaptureAt:    fw / 3,
		metaRemoveAt:     2 * fw / 3,
		metaWaveAt:       [2]time.Duration{fw / 2, fw},
		metaDocumentTTL:  time.Hour,
		metaTimestampTTL: 2 * time.Second,
		metaRefreshEvery: 700 * time.Millisecond,
		metaStaleGrace:   100 * time.Millisecond,
	}
}

// Apply is one switch apply decision, reduced for the no-forged-rule
// check: Digest is SHA-256 of the update's canonical bytes.
type Apply struct {
	Switch string
	ID     openflow.MsgID
	Phase  uint64
	Digest [32]byte
	Valid  bool
}

// BatchApply is one batch-amortized apply decision. The Merkle inclusion
// proof is re-verified when the decision is observed (pure hashing, cheap,
// and the message's backing arrays may be reused once the node moves on);
// the checks judge the stored verdict.
type BatchApply struct {
	Switch  string
	ID      openflow.MsgID
	Phase   uint64
	Root    []byte
	Valid   bool
	ProofOK bool
}

// recorder is the observation plane: the trace, the fault counters and
// the apply log. On live backends it takes writes from mailbox and sender
// goroutines, so every access is locked (uncontended on the simulator).
type recorder struct {
	mu           sync.Mutex
	now          func() fabric.Time
	tr           *Trace
	counter      *metrics.CounterSet
	applies      []Apply
	batchApplies []BatchApply
}

func newRecorder(now func() fabric.Time) *recorder {
	return &recorder{now: now, tr: NewTrace(0), counter: metrics.NewCounterSet()}
}

func (rec *recorder) note(kind, detail string) {
	rec.mu.Lock()
	rec.tr.Add(rec.now(), kind, detail)
	rec.mu.Unlock()
}

func (rec *recorder) count(name string, n uint64) {
	rec.mu.Lock()
	rec.counter.Add(name, n)
	rec.mu.Unlock()
}

// violation records a violation trace event and returns the related
// sub-trace under one critical section (injector goroutines may still be
// appending when a convergence sweep runs).
func (rec *recorder) violation(invariant, detail, token string) []TraceEvent {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.tr.Add(rec.now(), "violation", invariant+": "+detail)
	return rec.tr.Related(token, 12)
}

// onApply observes a switch apply decision (dataplane ApplyHook).
func (rec *recorder) onApply(sw string, id openflow.MsgID, phase uint64, mods []openflow.FlowMod, valid bool) Apply {
	ap := Apply{Switch: sw, ID: id, Phase: phase, Valid: valid,
		Digest: sha256.Sum256(openflow.CanonicalUpdateBytes(id, phase, mods))}
	rec.mu.Lock()
	rec.tr.Add(rec.now(), "apply", fmt.Sprintf("sw=%s update=%s phase=%d mods=%d valid=%v", sw, id, phase, len(mods), valid))
	rec.applies = append(rec.applies, ap)
	rec.mu.Unlock()
	return ap
}

// onBatchApply observes a batch-amortized apply decision (dataplane
// BatchApplyHook), re-running the Merkle inclusion proof with its own
// hashing — never trusting the switch's verdict — so a switch that applied
// forged batch content (bypassed or broken verification) is caught even
// though the root signature itself only covers the root.
func (rec *recorder) onBatchApply(sw string, m protocol.MsgBatchUpdate, valid bool) BatchApply {
	leaf := openflow.CanonicalUpdateBytes(m.UpdateID, m.Phase, m.Mods)
	ap := BatchApply{Switch: sw, ID: m.UpdateID, Phase: m.Phase, Valid: valid,
		Root:    append([]byte(nil), m.BatchRoot...),
		ProofOK: merkle.Verify(m.BatchRoot, leaf, m.LeafIndex, m.LeafCount, m.Proof)}
	rec.mu.Lock()
	rec.tr.Add(rec.now(), "batch-apply", fmt.Sprintf("sw=%s update=%s phase=%d leaf=%d/%d valid=%v",
		sw, m.UpdateID, m.Phase, m.LeafIndex, m.LeafCount, valid))
	rec.batchApplies = append(rec.batchApplies, ap)
	rec.mu.Unlock()
	return ap
}

// applyLog returns a copy of every apply decision observed so far.
func (rec *recorder) applyLog() ([]Apply, []BatchApply) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return slices.Clone(rec.applies), slices.Clone(rec.batchApplies)
}

// chaosSeedSalt splits the chaos RNG stream from the simulator's.
const chaosSeedSalt = 0x5eedc4a05

// campaign is one seed's backend-independent state: the profile and its
// timing table, the chaos RNG the schedule draws from, the deployment
// under test, the drawn workload and the violations found so far. The
// backend hides behind cluster.
type campaign struct {
	cluster
	*recorder
	p    Profile
	seed int64
	tm   timing
	rng  *rand.Rand
	net  *core.Network

	hosts    []string // sorted host ids
	hostSet  map[string]bool
	switches []string // sorted switch ids
	ctls     []fabric.NodeID
	// byz is the designated Byzantine controller ("" when the profile has
	// none): the last member of the domain.
	byz   fabric.NodeID
	flows []*flow

	found findings
	// err is the first harness error (a restart that failed, a node that
	// did not answer): the run's verdict cannot be trusted past it.
	err string

	meta metaCampaign
}

// newCampaign draws nothing yet: it fixes the seed's RNG and host list.
func newCampaign(p Profile, seed int64, tm timing, hosts []string) *campaign {
	c := &campaign{p: p, seed: seed, tm: tm, hosts: hosts,
		rng:     rand.New(rand.NewSource(seed ^ chaosSeedSalt)),
		hostSet: make(map[string]bool, len(hosts))}
	for _, h := range hosts {
		c.hostSet[h] = true
	}
	return c
}

// attach binds the campaign to a built deployment and its backend.
func (c *campaign) attach(cl cluster, rec *recorder, net *core.Network) {
	c.cluster, c.recorder, c.net = cl, rec, net
	for id := range net.Switches {
		c.switches = append(c.switches, id)
	}
	sort.Strings(c.switches)
	dom := net.Domains[0]
	for _, m := range dom.Members {
		c.ctls = append(c.ctls, fabric.NodeID(m))
	}
	if c.p.Byzantine {
		c.byz = c.ctls[len(c.ctls)-1]
	}
}

// on runs fn in the node's serial execution context and waits for it.
func (c *campaign) on(node fabric.NodeID, fn func()) error { return c.net.On(node, fn) }

// fail records a harness error; the first one wins.
func (c *campaign) fail(err error) {
	if err != nil && c.err == "" {
		c.err = err.Error()
	}
}

// report records a deduplicated violation with its related sub-trace.
func (c *campaign) report(invariant, dedupKey, detail, traceToken string) {
	if v := c.found.add(invariant, dedupKey, detail, traceToken); v != nil {
		v.Seed, v.T = c.seed, c.Now()
		v.Trace = c.violation(invariant, detail, traceToken)
	}
}

// honest returns the domain's current controller instances excluding the
// designated Byzantine one (its ledger proves nothing and its lies must
// not vouch for forged updates).
func (c *campaign) honest() []*controlplane.Controller {
	dom := c.net.Domains[0]
	out := make([]*controlplane.Controller, 0, len(dom.Controllers))
	for _, ctl := range dom.Controllers {
		if fabric.NodeID(ctl.ID()) != c.byz {
			out = append(out, ctl)
		}
	}
	return out
}

// plantCanaries disables the verification the profile's canary names on
// every switch — the built-in mutations the invariants must catch.
func (c *campaign) plantCanaries() {
	if !c.p.CanarySkipVerify && !c.p.CanaryMetaBypass {
		return
	}
	for _, id := range c.switches {
		sw := c.net.Switches[id]
		c.fail(c.on(fabric.NodeID(id), func() {
			if c.p.CanarySkipVerify {
				sw.SetVerifyBypass(true)
			}
			if st := sw.MetaStore(); st != nil && c.p.CanaryMetaBypass {
				st.SetVerifyBypass(true)
			}
		}))
	}
	if c.p.CanarySkipVerify {
		c.note("canary", "switch verification bypassed on all switches")
	}
	if c.p.CanaryMetaBypass {
		c.note("canary", "metadata verification bypassed on all switch stores")
	}
}
