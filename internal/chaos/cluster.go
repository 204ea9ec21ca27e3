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
	SetFilter(f fabric.Filter)

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
	// metaRefreshFor bounds the leader's refresh loop (< 0: it never
	// stops). The store canary withholds refreshes from
	// metaCanaryRefreshFor on, under proofs that live
	// metaCanaryTimestampTTL (the freeze attack): the victim stores then
	// sit on expired proofs while, bypassed, still claiming freshness,
	// which the stale-policy sweep must catch within the run.
	metaRefreshFor, metaCanaryRefreshFor, metaCanaryTimestampTTL time.Duration
}

// simTiming is the simulator's table for a run of the given budget.
// Freshness proofs live 40ms and the leader re-mints every 15ms to the
// end of the budget, so freshness is a live obligation for the whole run
// and an honest store is never more than one missed refresh from expiry;
// the canary's freeze withholds the back half, so a frozen store expires
// well inside the run. The membership removal precedes the first attack
// wave, and the retired-share probe follows the reshare it depends on.
func simTiming(flowWindow, budget time.Duration) timing {
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

		metaRefreshFor:         budget,
		metaCanaryRefreshFor:   budget / 2,
		metaCanaryTimestampTTL: 40 * ms,
	}
}

// liveTiming is the wall-clock table: fault windows scale from the flow
// window fw. Freshness proofs live two seconds and the leader re-mints
// well inside that, forever, so an honest store never expires. The
// canary's freeze withholds every refresh under proofs that live 300ms,
// so the last mint expires before the post-drain sweep. The removal
// falls between the two attack waves, after which the retired member's
// replayed envelopes classify as retired-key rejections; how long its
// reshare takes on a wall clock is not known in advance, so the
// retired-share probe stays simulator-only.
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

		metaRefreshFor:         -1,
		metaCanaryRefreshFor:   0,
		metaCanaryTimestampTTL: 300 * time.Millisecond,
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
// goroutines, so every access is locked (uncontended on the simulator):
// the trace by its own lock, the rest by mu.
type recorder struct {
	mu           sync.Mutex
	now          func() fabric.Time
	trace        *fabric.Log
	counter      *metrics.CounterSet
	applies      []Apply
	batchApplies []BatchApply
}

func newRecorder(now func() fabric.Time) *recorder {
	return &recorder{now: now, trace: fabric.NewLog(traceKeep, nil), counter: metrics.NewCounterSet()}
}

// traceKeep bounds the records a run keeps; the hash still covers all.
const traceKeep = 200_000

func (rec *recorder) note(kind, detail string) {
	rec.trace.Add(fabric.Record{T: rec.now(), Kind: kind, Detail: detail})
}

func (rec *recorder) count(name string, n uint64) {
	rec.mu.Lock()
	rec.counter.Add(name, n)
	rec.mu.Unlock()
}

// onApply observes a switch apply decision (dataplane ApplyHook).
func (rec *recorder) onApply(sw string, id openflow.MsgID, phase uint64, mods []openflow.FlowMod, valid bool) Apply {
	ap := Apply{Switch: sw, ID: id, Phase: phase, Valid: valid,
		Digest: sha256.Sum256(openflow.CanonicalUpdateBytes(id, phase, mods))}
	rec.note("apply", fmt.Sprintf("sw=%s update=%s phase=%d mods=%d valid=%v", sw, id, phase, len(mods), valid))
	rec.mu.Lock()
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
	rec.note("batch-apply", fmt.Sprintf("sw=%s update=%s phase=%d leaf=%d/%d valid=%v",
		sw, m.UpdateID, m.Phase, m.LeafIndex, m.LeafCount, valid))
	rec.mu.Lock()
	rec.batchApplies = append(rec.batchApplies, ap)
	rec.mu.Unlock()
	return ap
}

// applied is every backend's switch apply hook: the decision goes to the
// apply log, and the simulator's online checker judges it at apply time —
// the instant the no-forged-rule argument is about.
func (c *campaign) applied(sw string, id openflow.MsgID, phase uint64, mods []openflow.FlowMod, valid bool) {
	ap := c.onApply(sw, id, phase, mods, valid)
	if ck := c.online; ck != nil && valid {
		ck.refreshLegit()
		checkForgedRule(ap, ck.legit, c.report)
	}
}

// batchApplied is the batch-amortized counterpart of applied.
func (c *campaign) batchApplied(sw string, m protocol.MsgBatchUpdate, valid bool) {
	ap := c.onBatchApply(sw, m, valid)
	if c.online != nil {
		checkBatchProof(ap, c.report)
	}
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
	// online is the simulator's online checker (nil on a live backend,
	// which judges a quiesced snapshot instead).
	online *checker
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
func (c *campaign) attach(cl cluster, net *core.Network) {
	c.cluster, c.net = cl, net
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
		c.note("violation", invariant+": "+detail)
		v.Trace = c.trace.Related(traceToken, 12)
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

// plantCanary disables the verification the profile's canary names on
// every switch — the built-in mutation the invariants must catch.
func (c *campaign) plantCanary() {
	if !c.p.Canary {
		return
	}
	for _, id := range c.switches {
		sw := c.net.Switches[id]
		c.fail(c.on(fabric.NodeID(id), func() {
			if c.p.switchCanary() {
				sw.SetVerifyBypass(true)
			} else if st := sw.MetaStore(); st != nil {
				st.SetVerifyBypass(true)
			}
		}))
	}
	if c.p.switchCanary() {
		c.note("canary", "switch verification bypassed on all switches")
	} else {
		c.note("canary", "metadata verification bypassed on all switch stores")
	}
}
