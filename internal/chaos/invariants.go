package chaos

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"cicero/internal/audit"
	"cicero/internal/core"
	"cicero/internal/fabric"
	"cicero/internal/metarepo"
	"cicero/internal/netprop"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
)

// The checker. A property check is a function of a state snapshot, not of
// how the snapshot was obtained: every invariant below is one helper over
// plain data, called by the simulator's online sweep (every check interval
// and at every apply) and by Converge over the quiesced snapshot a live or
// one-process-per-node backend hands in.

// Violation is one invariant breach with the minimal related sub-trace.
type Violation struct {
	Seed      int64
	T         simnet.Time
	Invariant string
	Detail    string
	Trace     []TraceEvent
	// token links the violation to related trace events.
	token string
}

// String renders a violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("seed=%d t=%v %s: %s", v.Seed, v.T, v.Invariant, v.Detail)
}

// Invariant names.
const (
	// InvNoForgedRule: every update a switch applies as valid was
	// committed (ledgered) by at least one honest controller before any
	// share for it could have been sent — threshold-signature safety.
	InvNoForgedRule = "no-forged-rule"
	// InvBlackholeFreedom: following any installed output rule hop by hop
	// never reaches a switch with no matching rule or an unknown node.
	// Checked by the shared property engine (internal/netprop).
	InvBlackholeFreedom = netprop.BlackholeFreedom
	// InvLoopFreedom: no forwarding walk revisits a switch.
	InvLoopFreedom = netprop.LoopFreedom
	// InvPathConsistency: a forwarding walk for destination d that reaches
	// a host reaches exactly d.
	InvPathConsistency = netprop.PathConsistency
	// InvBFTAgreement: honest controllers of a domain deliver the same
	// events in the same order (total-order safety of the atomic
	// broadcast), observed through their hash-chained audit ledgers.
	InvBFTAgreement = "bft-agreement"
	// InvBatchProof: every batch-amortized update a switch applies as
	// valid must carry a Merkle inclusion proof that actually binds the
	// update's content to the claimed batch root. The proof is re-run
	// independently of the switch (so the verification-bypass canary
	// and any forged-root or content-splice mutation surface here).
	InvBatchProof = "forged-batch-proof"
	// InvResync: a restarted controller's rebuilt event ledger must be
	// prefix-consistent with its never-crashed honest peers' (recovery
	// must never install forged or reordered history).
	InvResync = "resync-divergence"
	// InvReference: the quiesced flow tables must match the fault-free
	// simnet reference of the same workload (checked when every flow
	// completed; meaningless under the canary, which plants forged rules).
	InvReference = "reference-divergence"

	// InvStalePolicy: a switch store that claims its adopted policy is
	// fresh must hold a live freshness proof. The checker reads the
	// timestamp document itself and compares it against the store's own
	// Fresh verdict, so a lying (bypassed) store frozen on a withheld or
	// replayed timestamp surfaces here, while an honest store that
	// correctly reports itself stale does not (knowing you are stale is
	// the freeze defense working).
	InvStalePolicy = "stale-policy"
	// InvMetaRollback: no store's adopted versions ever regress.
	InvMetaRollback = "meta-store-rollback"
	// InvMetaForged: every envelope a switch store holds must be one an
	// honest controller signed and adopted — byte-identical at the same
	// role and version, and never a version ahead of every honest
	// controller. Forged role keys and spliced sets surface here.
	InvMetaForged = "meta-store-forged"
)

// probeSrc is the concrete source used to walk wildcard-source rules.
const probeSrc = netprop.ProbeSrc

// findings deduplicates violations so a persistent bad state reports once.
type findings struct {
	seen map[string]bool
	list []Violation
}

// add records a violation unless its (invariant, dedupKey) was seen; it
// returns the new entry for the caller to stamp, or nil.
func (f *findings) add(invariant, dedupKey, detail, token string) *Violation {
	key := invariant + "|" + dedupKey
	if f.seen[key] {
		return nil
	}
	if f.seen == nil {
		f.seen = make(map[string]bool)
	}
	f.seen[key] = true
	f.list = append(f.list, Violation{Invariant: invariant, Detail: detail, token: token})
	return &f.list[len(f.list)-1]
}

func (f *findings) report(invariant, dedupKey, detail, token string) {
	f.add(invariant, dedupKey, detail, token)
}

// LedgerEntry is one KindEvent audit record reduced for comparison: its
// subject and the SHA-256 of its canonical bytes.
type LedgerEntry struct {
	Subject string
	Digest  [32]byte
}

// Ledger is one honest controller's audit ledger reduced for the checks.
type Ledger struct {
	ID string
	// Events are the KindEvent records in append (= broadcast delivery)
	// order. Only they are compared across controllers: the protocol
	// totally orders them, while KindUpdate records interleave with ack
	// arrival and legitimately differ.
	Events []LedgerEntry
	// Updates are the digests of every committed (KindUpdate) record.
	Updates [][32]byte
	// Transferred marks a ledger whose history came through peer state
	// transfer — a crash restart or a recover nudge — rather than from
	// having been there.
	Transferred bool
}

// ledgerOf reduces a controller's audit records.
func ledgerOf(id string, recs []audit.Record, transferred bool) Ledger {
	l := Ledger{ID: id, Transferred: transferred}
	for _, rec := range recs {
		switch rec.Kind {
		case audit.KindEvent:
			l.Events = append(l.Events, LedgerEntry{rec.Subject, sha256.Sum256(rec.Canonical)})
		case audit.KindUpdate:
			l.Updates = append(l.Updates, sha256.Sum256(rec.Canonical))
		}
	}
	return l
}

// Snapshot is a cluster's quiesced state, as plain data: everything the
// convergence checks read, however a backend obtained it.
type Snapshot struct {
	// Hosts is the set of host ids forwarding walks may end at.
	Hosts map[string]bool
	// Tables holds every switch's flow table.
	Tables map[string]*openflow.FlowTable
	// Ledgers holds every honest controller's ledger.
	Ledgers []Ledger
	// Applies and BatchApplies are every apply decision any switch took.
	Applies      []Apply
	BatchApplies []BatchApply

	FlowsDone, FlowsTotal int
}

// Converge runs the convergence checks over a quiesced snapshot and
// returns the deduplicated violations (Seed, T and Trace are the caller's
// to fill):
//
//   - the data-plane walk invariants (blackhole freedom, loop freedom,
//     path consistency) hold on every flow table;
//   - honest controllers' event ledgers agree pairwise (prefix shape), a
//     divergence between a state-transferred ledger and a never-crashed
//     one being recovery's fault (resync-divergence), any other the
//     broadcast's (bft-agreement);
//   - every update any switch applied as valid appears in an honest
//     ledger (no-forged-rule — with the verification canary planted, this
//     is the check that must fire), and every batched one carried a
//     verifying inclusion proof;
//   - with every flow completed, the tables match refDigest, the
//     fault-free simnet reference of the same workload ("" skips the
//     check).
func Converge(s Snapshot, refDigest string) []Violation {
	var f findings
	netprop.WalkTables(s.Tables, s.Hosts, f.report)
	checkLedgers(s.Ledgers, f.report)
	legit := make(map[[32]byte]bool)
	for _, l := range s.Ledgers {
		for _, d := range l.Updates {
			legit[d] = true
		}
	}
	for _, ap := range s.Applies {
		checkForgedRule(ap, legit, f.report)
	}
	for _, ap := range s.BatchApplies {
		checkBatchProof(ap, f.report)
	}
	if refDigest != "" && s.FlowsDone == s.FlowsTotal {
		if digest := openflow.TablesDigest(s.Tables); digest != refDigest {
			f.report(InvReference, "tables",
				fmt.Sprintf("quiesced tables (digest %.12s) diverge from the fault-free simnet reference (%.12s)", digest, refDigest),
				"reference")
		}
	}
	return f.list
}

// checkLedgers checks pairwise prefix agreement: the shorter event ledger
// must be a prefix of the longer (same events, same order).
func checkLedgers(ledgers []Ledger, report netprop.ReportFunc) {
	for i, a := range ledgers {
		for _, b := range ledgers[i+1:] {
			m := min(len(a.Events), len(b.Events))
			k := 0
			for k < m && a.Events[k] == b.Events[k] {
				k++
			}
			if k == m {
				continue
			}
			if a.Transferred != b.Transferred {
				// Content divergence inside the common prefix means
				// recovery installed forged or reordered history.
				re, peer := a, b
				if b.Transferred {
					re, peer = b, a
				}
				report(InvResync, re.ID+"|"+peer.ID,
					fmt.Sprintf("restarted controller %s's rebuilt ledger (%d events) diverges in content from never-crashed %s's (%d events)",
						re.ID, len(re.Events), peer.ID, len(peer.Events)),
					re.ID)
				continue
			}
			report(InvBFTAgreement,
				fmt.Sprintf("%s|%s|%d", a.ID, b.ID, k),
				fmt.Sprintf("controllers %s and %s diverge at delivery %d: %s vs %s",
					a.ID, b.ID, k, a.Events[k].Subject, b.Events[k].Subject),
				a.Events[k].Subject)
		}
	}
}

// ResyncProven reports whether every state-transferred ledger is
// byte-identical to some never-crashed honest peer's — the stricter claim
// on top of resync-divergence's prefix consistency. It holds at
// quiescence for benign fault profiles; under Byzantine message loss a
// lawful delivery lag can leave it false without any invariant being
// violated.
func (s Snapshot) ResyncProven() bool {
	for _, re := range s.Ledgers {
		if re.Transferred && !slices.ContainsFunc(s.Ledgers, func(peer Ledger) bool {
			return !peer.Transferred && slices.Equal(re.Events, peer.Events)
		}) {
			return false
		}
	}
	return true
}

// checkForgedRule is the no-forged-rule check for one apply decision.
// Soundness: in threshold mode an update applies only after quorum-many
// distinct share indices, of which at most f belong to Byzantine
// controllers, and every honest controller appends the update to its
// ledger before sending its share — so by apply time the canonical bytes
// must already be in some honest ledger. A valid apply whose bytes no
// honest controller ever committed is a forged installation. A rejected
// update is the protocol working.
func checkForgedRule(ap Apply, legit map[[32]byte]bool, report netprop.ReportFunc) {
	if ap.Valid && !legit[ap.Digest] {
		report(InvNoForgedRule, fmt.Sprintf("%s|%s", ap.Switch, ap.ID),
			fmt.Sprintf("switch %s applied update %s (phase %d) that no honest controller committed", ap.Switch, ap.ID, ap.Phase),
			ap.ID.String())
	}
}

// checkBatchProof is the forged-batch-proof check for one batched apply.
func checkBatchProof(ap BatchApply, report netprop.ReportFunc) {
	if ap.Valid && !ap.ProofOK {
		report(InvBatchProof, fmt.Sprintf("%s|%s", ap.Switch, ap.ID),
			fmt.Sprintf("switch %s applied batched update %s (phase %d) whose inclusion proof does not verify against root %x",
				ap.Switch, ap.ID, ap.Phase, ap.Root),
			ap.ID.String())
	}
}

// ReferenceDigest runs the drawn workload fault-free on the simulator and
// returns the canonical table digest a faulted run of the same flows must
// converge to. cfg.Fabric must be nil; the digest is crypto-independent,
// so the reference need not pay for real crypto.
func ReferenceDigest(cfg core.Config, flows []Flow) (string, error) {
	n, err := core.Build(cfg)
	if err != nil {
		return "", err
	}
	for i, f := range flows {
		if f.Ingress == "" {
			continue
		}
		ingress := n.Switches[f.Ingress]
		n.Sim.At(time.Duration(i)*time.Millisecond, func() { ingress.PacketArrival(f.Src, f.Dst) })
	}
	if _, err := n.Sim.RunUntil(5 * time.Second); err != nil {
		return "", err
	}
	tables, err := n.Tables()
	if err != nil {
		return "", err
	}
	return openflow.TablesDigest(tables), nil
}

// checker is the simulator's online invariant plane: the same property
// helpers, fed incrementally. All its entry points run synchronously on
// the simulator loop.
type checker struct {
	c *campaign
	// legit holds the digest of every update ledgered by an honest
	// controller; ledgerPos tracks the incremental scan.
	legit     map[[32]byte]bool
	ledgerPos map[fabric.NodeID]int
}

func newChecker(c *campaign) *checker {
	return &checker{c: c, legit: make(map[[32]byte]bool), ledgerPos: make(map[fabric.NodeID]int)}
}

// onApply judges every switch apply decision at apply time (dataplane
// ApplyHook) — the instant the no-forged-rule argument is about.
func (ck *checker) onApply(sw string, id openflow.MsgID, phase uint64, mods []openflow.FlowMod, valid bool) {
	ap := ck.c.onApply(sw, id, phase, mods, valid)
	if valid {
		ck.refreshLegit()
		checkForgedRule(ap, ck.legit, ck.c.report)
	}
}

// onBatchApply judges every batch-amortized apply decision (dataplane
// BatchApplyHook).
func (ck *checker) onBatchApply(sw string, m protocol.MsgBatchUpdate, valid bool) {
	checkBatchProof(ck.c.onBatchApply(sw, m, valid), ck.c.report)
}

// refreshLegit ingests newly ledgered updates from honest controllers.
func (ck *checker) refreshLegit() {
	for _, ctl := range ck.c.honest() {
		recs := ctl.AuditRecords()
		id := fabric.NodeID(ctl.ID())
		for _, rec := range recs[ck.ledgerPos[id]:] {
			if rec.Kind == audit.KindUpdate {
				ck.legit[sha256.Sum256(rec.Canonical)] = true
			}
		}
		ck.ledgerPos[id] = len(recs)
	}
}

// sweep runs the walk, agreement and metadata invariants over the live
// simulator state. Under reverse-path scheduling the walk invariants hold
// at every instant, not just at quiescence: a rule is installed only
// after its downstream suffix acked.
func (ck *checker) sweep() {
	c := ck.c
	tables := make(map[string]*openflow.FlowTable, len(c.switches))
	for _, id := range c.switches {
		tables[id] = c.net.Switches[id].Table()
	}
	netprop.WalkTables(tables, c.hostSet, c.report)

	honest := c.honest()
	ledgers := make([]Ledger, len(honest))
	for i, ctl := range honest {
		ledgers[i] = ledgerOf(string(ctl.ID()), ctl.AuditRecords(), false)
	}
	checkLedgers(ledgers, c.report)

	c.sweepMetaStores()
}

// metaVersions is one store's adopted version vector, tracked across
// sweeps for regression detection.
type metaVersions struct {
	root, targets, snapshot, timestamp uint64
}

// metaDoc is one envelope a store holds: its role, its version and the
// digest of its signed bytes.
type metaDoc struct {
	role    string
	version uint64
	digest  [32]byte
}

func (d metaDoc) key() string { return fmt.Sprintf("%s|%d", d.role, d.version) }

// metaStoreView is one metadata store's state at a sweep.
type metaStoreView struct {
	id       string
	versions metaVersions
	docs     []metaDoc
	// fresh is the store's own (possibly lying) verdict; proofExpiresNS is
	// read off the timestamp document itself.
	fresh          bool
	hasProof       bool
	proofExpiresNS int64
}

// sweepMetaStores views every honest controller store and every switch
// store through the nodes' serial contexts and checks them.
func (c *campaign) sweepMetaStores() {
	if !c.p.Metadata {
		return
	}
	now := int64(c.Now())
	view := func(id string, store func() *metarepo.Store, into *[]metaStoreView) {
		c.fail(c.on(fabric.NodeID(id), func() {
			st := store()
			if st == nil {
				return
			}
			rt, tg, sn, ts := st.Versions()
			v := metaStoreView{id: id, versions: metaVersions{rt, tg, sn, ts}, fresh: st.Fresh(now)}
			for _, env := range st.CurrentSet() {
				var doc struct {
					Version uint64 `json:"version"`
				}
				if json.Unmarshal(env.Signed, &doc) == nil {
					v.docs = append(v.docs, metaDoc{env.Role, doc.Version, sha256.Sum256(env.Signed)})
				}
			}
			if doc := st.TimestampDoc(); doc != nil {
				v.hasProof, v.proofExpiresNS = true, doc.ExpiresNS
			}
			*into = append(*into, v)
		}))
	}
	var honest, switches []metaStoreView
	for _, ctl := range c.honest() {
		view(string(ctl.ID()), ctl.MetaStore, &honest)
	}
	for _, id := range c.switches {
		view(id, c.net.Switches[id].MetaStore, &switches)
	}
	checkMetaStores(honest, switches, c.meta.seen, now, c.tm.metaStaleGrace, c.report)
}

// checkMetaStores checks the metadata invariants: per-store version
// monotonicity against seen (the vectors recorded by earlier sweeps,
// updated in place), switch-store content against the honest controller
// stores, and freshness of every adopted policy.
func checkMetaStores(honest, switches []metaStoreView, seen map[string]metaVersions, now int64, grace time.Duration, report netprop.ReportFunc) {
	// Reference: every (role, version) -> digest an honest controller
	// store currently holds, and the highest honest targets version.
	ref := make(map[string][32]byte)
	var maxTargets uint64
	for _, v := range honest {
		for _, d := range v.docs {
			ref[d.key()] = d.digest
		}
		maxTargets = max(maxTargets, v.versions.targets)
	}
	for _, v := range switches {
		cur := v.versions
		prev, ok := seen[v.id]
		if ok && (cur.root < prev.root || cur.targets < prev.targets ||
			cur.snapshot < prev.snapshot || cur.timestamp < prev.timestamp) {
			report(InvMetaRollback, v.id,
				fmt.Sprintf("switch %s store regressed: %+v -> %+v", v.id, prev, cur), v.id)
		}
		if !ok || cur.root > prev.root || cur.targets > prev.targets ||
			cur.snapshot > prev.snapshot || cur.timestamp > prev.timestamp {
			seen[v.id] = cur
		}
		if cur.targets > maxTargets {
			report(InvMetaForged, v.id+"|ahead",
				fmt.Sprintf("switch %s holds targets v%d but no honest controller is past v%d",
					v.id, cur.targets, maxTargets), v.id)
		}
		for _, d := range v.docs {
			// Honest stores may have moved on; absence proves nothing.
			if want, ok := ref[d.key()]; ok && d.digest != want {
				report(InvMetaForged, v.id+"|"+d.key(),
					fmt.Sprintf("switch %s holds a %s v%d no honest controller signed", v.id, d.role, d.version), v.id)
			}
		}
		// Freshness: a store claiming its policy is fresh must hold a live
		// proof — the document itself, not the store's possibly-lying Fresh
		// verdict, is what counts. An honest store past expiry reports
		// itself stale and is skipped: refusing to vouch IS the defense.
		if cur.targets > 0 && v.fresh && (!v.hasProof || now > v.proofExpiresNS+int64(grace)) {
			report(InvStalePolicy, v.id,
				fmt.Sprintf("switch %s claims policy v%d is fresh without a live proof", v.id, cur.targets), v.id)
		}
	}
}
