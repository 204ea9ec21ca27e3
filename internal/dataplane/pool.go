// The update install path (Fig. 6b): collect a quorum of signature shares
// over what the controllers signed, aggregate, verify once, apply.
//
// What the controllers sign is either one update's canonical bytes
// (MsgUpdate) or the Merkle root of a batch of them (MsgBatchUpdate, the
// switch half of the carrier-scale hot path, see
// internal/controlplane/batch.go). Both land in the same quorum pool,
// keyed by a digest of those signed bytes, so shares only ever meet shares
// over identical content: a forged rule sent under a real update id opens
// a pool of its own that no honest share joins.
//
// A MsgBatchUpdate carries one update plus a Merkle inclusion proof
// against the batch root, a per-batch signature share over the root, and a
// per-update Ed25519 release attestation. The switch verifies the proof
// with pure hashing (cheap, always on), collects a quorum of root shares
// ONCE per batch, and pays the pairing check a single time; every other
// update of the batch rides the pool's verified latch. The root signature
// amortizes the CRYPTO, not the RELEASE DECISION: an update still applies
// only after quorum-many distinct AUTHENTICATED controllers have each
// attested its release (each honest controller dispatches an update only
// when its scheduler released it, dependencies acked). The attestation is
// the controller's Ed25519 signature over the (update, phase, root)
// triple, verified against the PKI directory — a self-declared share
// index would let a single Byzantine controller, holding the delivered
// batch and thus every member's valid proof, fabricate the whole quorum
// and install a later batch member ahead of its dependency order. A
// MsgUpdate needs no separate attestation: its shares sign the update's
// own bytes, so the share quorum is the release quorum. Per-update traffic
// is accepted concurrently with batches — recovery replays and cross-phase
// retransmissions use it.
package dataplane

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/merkle"
	"cicero/internal/tcrypto/pki"
)

// maxPendingBatches bounds the quorum pool map: at most this many
// unverified pools and, separately, this many verified ones. Opening a
// pool takes no key — any sender can mint update ids, or valid
// (root, phase) pairs over self-built Merkle trees — so without a cap each
// one would allocate a pool that lives for the switch's lifetime. Each
// class is a FIFO of its own. An attacker cannot mint verified entries —
// those took a quorum of shares — so junk only ever displaces junk, never
// real state; and verified batch pools, which nothing else retires, only
// ever displace older verified pools, never the unverified pool of an
// update or batch whose shares are still arriving. (With one shared budget
// a switch that had verified maxPendingBatches roots evicted every
// in-flight pool on the next root's arrival, and no batched update
// completed again.)
const maxPendingBatches = 512

// member is one update waiting on its pool: for the share quorum to
// verify and, in a batch pool, for quorum-many distinct controllers to
// have attested this very update's release.
type member struct {
	// msg is the latest copy received; a per-update pool fills in only
	// UpdateID, Phase and Mods.
	msg     protocol.MsgBatchUpdate
	senders map[pki.Identity]bool
}

// pool collects the share quorum over one signed byte string and the
// updates that wait on it.
type pool struct {
	phase uint64
	// batch marks a batch root's pool: it outlives its verdict so later
	// members ride the verified latch, and releases a member only with a
	// sender quorum. A per-update pool holds its one update, releases it
	// on the verdict and is deleted.
	batch bool
	// shares is keyed by share index and overwritten on retransmission: a
	// garbage share claiming an index must not permanently shadow the
	// index owner's real share, or a poisoned pool would stall until
	// eviction.
	shares   map[uint32][]byte
	verified bool
	// seq orders the pools of one class for eviction: arrival order
	// while unverified, verification order afterwards.
	seq uint64
	// waiting is keyed by updateKey so retransmissions accumulate senders
	// instead of duplicating entries.
	waiting map[string]*member
}

// updateKey names one update in the applied and waiting maps, binding
// update id and phase.
func updateKey(id openflow.MsgID, phase uint64) string {
	var buf [64]byte
	b := id.AppendTo(buf[:0])
	b = append(b, '|')
	return string(strconv.AppendUint(b, phase, 10))
}

// admit is the prologue of every update-carrying message. It reports the
// update's key and whether the message still has to earn a verdict: not
// when the update is already decided (a recovery retransmission is
// re-acknowledged — a controller that lost the ack in a crash is stuck
// without it — while ordinary late shares stay silent so they do not
// amplify into ack storms), not in the unsigned baselines (first copy
// wins), and not for raw shares in aggregated mode (the aggregator must
// combine them first).
func (s *Switch) admit(id openflow.MsgID, phase uint64, mods []openflow.FlowMod, resend, shares bool) (string, bool) {
	key := updateKey(id, phase)
	if verdict, decided := s.applied[key]; decided {
		if resend {
			s.sendAck(id, verdict)
		}
		return key, false
	}
	switch {
	case s.cfg.Mode == ModeUnsigned:
		s.apply(id, phase, mods, true)
		return key, false
	case s.cfg.Mode == ModeAggregated && shares:
		s.UpdatesRejected++
		return key, false
	}
	return key, true
}

// handleUpdate processes one controller's share over a single update.
func (s *Switch) handleUpdate(m protocol.MsgUpdate) {
	key, open := s.admit(m.UpdateID, m.Phase, m.Mods, m.Resend, true)
	if !open || m.ShareIndex == 0 {
		return // a zero index is a malformed share
	}
	s.collect(openflow.CanonicalUpdateBytes(m.UpdateID, m.Phase, m.Mods), false, key, protocol.MsgBatchUpdate{
		UpdateID:   m.UpdateID,
		Mods:       m.Mods,
		Phase:      m.Phase,
		ShareIndex: m.ShareIndex,
		Share:      m.Share,
	}, m.From)
}

// handleAggUpdate verifies a pre-aggregated signature and applies.
func (s *Switch) handleAggUpdate(m protocol.MsgAggUpdate) {
	if _, open := s.admit(m.UpdateID, m.Phase, m.Mods, m.Resend, false); !open {
		return
	}
	s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID), s.cfg.Cost.BLSVerifyAggregate)
	valid := true
	if s.cfg.CryptoReal && !s.verifyBypass {
		canonical := openflow.CanonicalUpdateBytes(m.UpdateID, m.Phase, m.Mods)
		pt, err := s.cfg.Scheme.Params.ParsePoint(m.Signature)
		valid = err == nil && s.cfg.Scheme.Verify(s.cfg.GroupKey.PK, canonical, bls.Signature{Point: pt})
	}
	s.apply(m.UpdateID, m.Phase, m.Mods, valid)
}

// handleBatchUpdate processes one batch-amortized update: inclusion-proof
// check and release-attestation authentication, then the batch root's
// pool.
func (s *Switch) handleBatchUpdate(m protocol.MsgBatchUpdate) {
	key, open := s.admit(m.UpdateID, m.Phase, m.Mods, m.Resend, true)
	if !open {
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
	// Release-attestation authentication: the sender quorum counts
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
	s.collect(protocol.BatchBytes(m.Phase, m.BatchRoot), true, key, m, sender)
}

// collect adds one admitted message — its share, and sender's release
// attestation for the update named by key (authenticated by the caller for
// a batch; a per-update pool never counts senders) — to the pool of the
// bytes the share signs, runs the one aggregate-and-verify when the share
// quorum completes, and releases every member the pool's state now allows.
func (s *Switch) collect(signed []byte, batch bool, key string, m protocol.MsgBatchUpdate, sender pki.Identity) {
	pk := sha256.Sum256(signed)
	p, ok := s.pools[pk]
	if !ok {
		s.evictOldestPool(false)
		s.poolSeq++
		p = &pool{
			phase:   m.Phase,
			batch:   batch,
			shares:  make(map[uint32][]byte),
			seq:     s.poolSeq,
			waiting: make(map[string]*member),
		}
		s.pools[pk] = p
	}
	w, ok := p.waiting[key]
	if !ok {
		w = &member{senders: make(map[pki.Identity]bool)}
		p.waiting[key] = w
	}
	w.msg = m
	w.senders[sender] = true
	if !p.verified {
		p.shares[m.ShareIndex] = m.Share
		if len(p.shares) < s.cfg.Quorum {
			return
		}
		// Share quorum reached: aggregate and verify, one pairing check for
		// everything the shares sign. A failure (Byzantine shares in the
		// mix) keeps the pool pending so later honest shares can still
		// complete it.
		s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID),
			time.Duration(s.cfg.Quorum)*s.cfg.Cost.BLSAggregatePerShare+s.cfg.Cost.BLSVerifyAggregate)
		if s.cfg.CryptoReal && !s.verifyBypass {
			if _, err := s.cfg.Scheme.CombineVerified(s.cfg.GroupKey, signed, s.cfg.Scheme.ParseShares(p.shares)); err != nil {
				s.UpdatesRejected++
				return
			}
		}
		if p.batch {
			s.evictOldestPool(true)
			s.poolSeq++
			p.seq = s.poolSeq
		} else {
			delete(s.pools, pk)
		}
		p.verified = true
		p.shares = nil // quorum served its purpose; later members ride verified
	}
	// Release in deterministic order (map iteration is randomized; acks
	// must not be). Batch members short of their sender quorum stay
	// buffered until more senders arrive.
	var ready []string
	for k, wk := range p.waiting {
		if !p.batch || len(wk.senders) >= s.cfg.Quorum {
			ready = append(ready, k)
		}
	}
	sort.Strings(ready)
	for _, k := range ready {
		wk := p.waiting[k]
		delete(p.waiting, k)
		if _, decided := s.applied[k]; decided {
			continue // another pool carrying the same update raced ahead
		}
		// The batch observation hook (the chaos engine's Merkle-proof
		// invariant attaches there) fires alongside apply's ApplyHook.
		if p.batch && s.cfg.BatchApplyHook != nil {
			s.cfg.BatchApplyHook(s.cfg.ID, wk.msg, true)
		}
		s.apply(wk.msg.UpdateID, wk.msg.Phase, wk.msg.Mods, true)
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

// evictOldestPool makes room for one more pool of a class (verified or
// not) when that class is at its budget, by retiring the class's oldest
// entry. Updates still waiting on a retired pool would merely re-collect
// a quorum: a liveness cost, never a safety one.
func (s *Switch) evictOldestPool(verified bool) {
	if len(s.pools) < maxPendingBatches {
		return // no class can be at its budget yet
	}
	n, victimSeq := 0, uint64(0)
	var victim [sha256.Size]byte
	for k, p := range s.pools {
		if p.verified != verified {
			continue
		}
		n++
		if n == 1 || p.seq < victimSeq {
			victim, victimSeq = k, p.seq
		}
	}
	if n >= maxPendingBatches {
		delete(s.pools, victim)
	}
}

// dropStaleBatches discards batch pools from membership phases before the
// given one; controllers re-sign fresh batches in the new phase and
// retransmit cross-phase updates share by share, so stale batch pools can
// never complete. Per-update pools stay: those retransmissions carry the
// phase the update was first signed in.
func (s *Switch) dropStaleBatches(phase uint64) {
	for k, p := range s.pools {
		if p.batch && p.phase < phase {
			delete(s.pools, k)
		}
	}
}
