// Batch-amortized update verification (the switch half of the
// carrier-scale hot path, see internal/controlplane/batch.go).
//
// A MsgBatchUpdate carries one update plus a Merkle inclusion proof
// against a batch root, a per-batch signature share over the root, and a
// per-update Ed25519 release attestation. The switch verifies the proof
// with pure hashing (cheap, always on), collects a quorum of root shares
// ONCE per batch, and pays the pairing check a single time; every other
// update of the batch rides the cached verdict. The root signature
// amortizes the CRYPTO, not the RELEASE DECISION: an update still applies
// only after quorum-many distinct AUTHENTICATED controllers have each
// attested its release (each honest controller dispatches an update only
// when its scheduler released it, dependencies acked). The attestation is
// the controller's Ed25519 signature over the (update, phase, root)
// triple, verified against the PKI directory — a self-declared share
// index would let a single Byzantine controller, holding the delivered
// batch and thus every member's valid proof, fabricate the whole quorum
// and install a later batch member ahead of its dependency order. Legacy
// per-update MsgUpdate traffic is still accepted concurrently — recovery
// replays and cross-phase retransmissions use it.
package dataplane

import (
	"fmt"
	"sort"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/merkle"
	"cicero/internal/tcrypto/pki"
)

// maxPendingBatches bounds the root-quorum pool map: at most this many
// unverified pools and, separately, this many verified ones. Merkle proof
// verification is keyless hashing, so any sender can mint valid
// (root, phase) pairs over self-built trees; without a cap each one would
// allocate a pendingBatch that lives for the switch's lifetime. Each class
// is a FIFO of its own. An attacker cannot mint verified entries — those
// took a quorum of root shares — so junk only ever displaces junk, never
// real state; and verified pools, which nothing else retires, only ever
// displace older verified pools, never the unverified pool of a batch
// whose shares are still arriving. (With one shared budget a switch that
// had verified maxPendingBatches roots evicted every in-flight pool on the
// next root's arrival, and no batched update completed again.)
const maxPendingBatches = 512

// batchWaiter buffers one proof-checked update until both gates open:
// the batch root is quorum-verified AND quorum-many distinct controllers
// have attested this very update's release (mirroring the legacy
// per-update share quorum).
type batchWaiter struct {
	msg     protocol.MsgBatchUpdate
	senders map[pki.Identity]bool
}

// pendingBatch tracks one batch root's share quorum and the updates that
// wait on it.
type pendingBatch struct {
	phase    uint64
	shares   map[uint32][]byte
	verified bool
	// seq orders the pools of one class for eviction: arrival order
	// while unverified, verification order afterwards.
	seq uint64
	// waiting is keyed by updateKey so retransmissions accumulate senders
	// instead of duplicating entries.
	waiting map[string]*batchWaiter
}

// batchKey identifies one batch root's quorum pool.
func batchKey(root []byte, phase uint64) string {
	return fmt.Sprintf("%x|%d", root, phase)
}

// handleBatchUpdate processes one batch-amortized update: inclusion-proof
// check, release-attestation authentication, then root-share quorum with
// a single pairing per batch and a per-update sender quorum before the
// apply decision.
func (s *Switch) handleBatchUpdate(m protocol.MsgBatchUpdate) {
	key := updateKey(m.UpdateID, m.Phase)
	if verdict, decided := s.applied[key]; decided {
		if m.Resend {
			s.sendAck(m.UpdateID, verdict)
		}
		return
	}
	switch s.cfg.Mode {
	case ModeUnsigned:
		s.apply(m.UpdateID, m.Phase, m.Mods, true)
		return
	case ModeAggregated:
		// Per-share batch traffic is not accepted in aggregated mode; the
		// aggregator must combine shares first (same gate as handleUpdate).
		s.UpdatesRejected++
		return
	}
	// Inclusion proof first: it binds this update's exact content and
	// position to the root. It is pure hashing, so it runs even when
	// CryptoReal is off — forged content must never reach the quorum pool.
	// verifyBypass (the chaos canary) disables it like every other check.
	if !s.verifyBypass {
		leaf := openflow.CanonicalUpdateBytes(m.UpdateID, m.Phase, m.Mods)
		if !merkle.Verify(m.BatchRoot, leaf, m.LeafIndex, m.LeafCount, m.Proof) {
			// A failed inclusion proof is attacker-controlled input, not a
			// protocol verdict on the update: drop it without deciding so an
			// honest retransmission of the same update can still complete.
			s.UpdatesRejected++
			if s.cfg.BatchApplyHook != nil {
				s.cfg.BatchApplyHook(s.cfg.ID, m, false)
			}
			return
		}
	}
	if m.ShareIndex == 0 {
		return // malformed share
	}
	// Release-attestation authentication: the sender quorum below counts
	// identities, so the identity must be one the switch can trust. The
	// claimed controller must be a current member and, under real crypto,
	// must have Ed25519-signed this exact (update, phase, root) release —
	// holding the batch (and thus every member's valid proof) is NOT
	// enough to vouch for a member's release. The bypass canary models a
	// switch with broken verification: it trusts the self-declared share
	// index as the sender, the pre-fix vulnerability the chaos invariants
	// must catch.
	sender := m.From
	if s.verifyBypass {
		sender = pki.Identity(fmt.Sprintf("bypass-%d", m.ShareIndex))
	} else {
		if !s.isController(m.From) {
			s.UpdatesRejected++
			return
		}
		s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID), s.cfg.Cost.Ed25519Verify)
		if s.cfg.CryptoReal {
			release := protocol.BatchReleaseBytes(m.UpdateID, m.Phase, m.BatchRoot)
			if s.cfg.Directory.Verify(m.From, release, m.ReleaseSig) != nil {
				// Like a failed proof: attacker-controlled input, dropped
				// without deciding the update.
				s.UpdatesRejected++
				return
			}
		}
	}
	bk := batchKey(m.BatchRoot, m.Phase)
	pb, ok := s.pendingBatches[bk]
	if !ok {
		s.evictOldestBatch(false)
		s.batchSeq++
		pb = &pendingBatch{
			phase:   m.Phase,
			shares:  make(map[uint32][]byte),
			seq:     s.batchSeq,
			waiting: make(map[string]*batchWaiter),
		}
		s.pendingBatches[bk] = pb
	}
	w, ok := pb.waiting[key]
	if !ok {
		w = &batchWaiter{senders: make(map[pki.Identity]bool)}
		pb.waiting[key] = w
	}
	w.msg = m
	w.senders[sender] = true
	if pb.verified {
		// Root already quorum-verified: this update rides the cached batch
		// signature — zero additional pairings — but still waits for its
		// own quorum of distinct release attestations.
		if len(w.senders) >= s.cfg.Quorum {
			delete(pb.waiting, key)
			s.batchDecide(w.msg, true)
		}
		return
	}
	// Overwrite on retransmission (same as the legacy per-update pool): a
	// garbage share claiming this index must not permanently shadow the
	// index owner's real share, or a poisoned pool could stall the whole
	// batch until honest retransmissions land.
	pb.shares[m.ShareIndex] = m.Share
	if len(pb.shares) < s.cfg.Quorum {
		return
	}
	// Root-share quorum reached: one aggregate-and-verify for the whole
	// batch. A failure (Byzantine shares in the mix) keeps the batch
	// pending so later honest shares can still complete it.
	s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID),
		time.Duration(s.cfg.Quorum)*s.cfg.Cost.BLSAggregatePerShare+s.cfg.Cost.BLSVerifyAggregate)
	if s.cfg.CryptoReal && !s.verifyBypass && !s.verifyBatchRoot(pb, m.BatchRoot) {
		s.UpdatesRejected++
		return
	}
	s.evictOldestBatch(true)
	s.batchSeq++
	pb.verified, pb.seq = true, s.batchSeq
	pb.shares = nil // quorum served its purpose; later members ride verified
	// Release every waiting update that already has its sender quorum, in
	// deterministic order (map iteration is randomized; acks must not be).
	// Sub-quorum waiters stay buffered until more senders arrive.
	keys := make([]string, 0, len(pb.waiting))
	for k := range pb.waiting {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		wk := pb.waiting[k]
		if len(wk.senders) < s.cfg.Quorum {
			continue
		}
		delete(pb.waiting, k)
		if _, decided := s.applied[k]; decided {
			continue // a legacy quorum may have raced ahead
		}
		s.batchDecide(wk.msg, true)
	}
}

// isController reports whether id is a current control-plane member.
func (s *Switch) isController(id pki.Identity) bool {
	for _, ctl := range s.cfg.Controllers {
		if ctl == id {
			return true
		}
	}
	return false
}

// evictOldestBatch makes room for one more pool of a class (verified or
// not) when that class is at its budget, by retiring the class's oldest
// entry. Members still waiting on a retired verified pool would merely
// re-collect a quorum: a liveness cost, never a safety one.
func (s *Switch) evictOldestBatch(verified bool) {
	if len(s.pendingBatches) < maxPendingBatches {
		return // no class can be at its budget yet
	}
	n, victim, victimSeq := 0, "", uint64(0)
	for k, pb := range s.pendingBatches {
		if pb.verified != verified {
			continue
		}
		n++
		if victim == "" || pb.seq < victimSeq {
			victim, victimSeq = k, pb.seq
		}
	}
	if n >= maxPendingBatches {
		delete(s.pendingBatches, victim)
	}
}

// dropStaleBatches discards pool entries from membership phases before
// the given one; controllers re-sign fresh batches in the new phase and
// retransmit cross-phase updates through the legacy per-update path, so
// stale entries can never complete.
func (s *Switch) dropStaleBatches(phase uint64) {
	for k, pb := range s.pendingBatches {
		if pb.phase < phase {
			delete(s.pendingBatches, k)
		}
	}
}

// verifyBatchRoot combines the collected root shares and verifies the
// aggregate against the group public key — the batch's one pairing.
func (s *Switch) verifyBatchRoot(pb *pendingBatch, root []byte) bool {
	canonical := protocol.BatchBytes(pb.phase, root)
	shares := make([]bls.SignatureShare, 0, len(pb.shares))
	for idx, raw := range pb.shares {
		pt, err := s.cfg.Scheme.Params.ParsePoint(raw)
		if err != nil {
			continue
		}
		shares = append(shares, bls.SignatureShare{Index: idx, Point: pt})
	}
	_, err := s.cfg.Scheme.CombineVerifiedCached(s.verifyCache, s.cfg.GroupKey, canonical, shares)
	return err == nil
}

// batchDecide applies or rejects a batch update and notifies the batch
// observation hook (the chaos engine's Merkle-proof invariant attaches
// there, alongside the regular ApplyHook fired by apply).
func (s *Switch) batchDecide(m protocol.MsgBatchUpdate, valid bool) {
	if s.cfg.BatchApplyHook != nil {
		s.cfg.BatchApplyHook(s.cfg.ID, m, valid)
	}
	s.apply(m.UpdateID, m.Phase, m.Mods, valid)
}
