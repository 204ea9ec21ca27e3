// Batch-amortized ordering and signing (the carrier-scale hot path).
//
// With Config.BatchSize > 1 the atomic broadcast delivers whole batches of
// events per agreement slot (internal/bft), and the threshold-crypto cost
// collapses from one signing ceremony per update to one per batch: the
// controller plans every event of a delivered batch, hashes the resulting
// updates' canonical bytes into a Merkle tree, signs only
// BatchBytes(phase, root), and dispatches each update with its inclusion
// proof (protocol.MsgBatchUpdate). Switches verify proofs with pure
// hashing and pay the pairing check once per batch root.
//
// The no-forged-rule guarantee is unchanged: the root binds every leaf's
// exact content and position, a quorum of t = ⌊(n−1)/3⌋+1 root shares still
// vouches for at least one honest controller, and a switch only acts on an
// update whose proof verifies against a quorum-signed root. The audit
// ledger keeps recording per-update canonical bytes, so batched and
// unbatched runs produce identical ledger content — the digest cross-check
// the scale benchmark enforces.
//
// Dispatch remains dependency-driven with no batch-completion barrier:
// plans enter the scheduler engine individually and each update leaves the
// moment its dependencies clear, carrying the already-computed proof
// (dispatchUpdate sends an update through sendBatchUpdate when a same-phase
// batch context exists for it, and through the per-update share path
// otherwise — recovery replays and cross-phase retransmissions always have
// that path to land on, and switches accept both concurrently).
package controlplane

import (
	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/scheduler"
	"cicero/internal/tcrypto/merkle"
)

// batchRef is the batch-amortized signing context of one planned update:
// everything dispatch (and recovery retransmission) needs to send it as a
// MsgBatchUpdate. The share is computed once per batch and referenced by
// every update in it.
type batchRef struct {
	phase uint64
	root  []byte
	index int
	count int
	proof [][]byte
	share []byte
}

// batchingEnabled reports whether batch-amortized signing is active.
// Ordering-level batching only needs BatchSize; the Merkle/signature
// amortization additionally requires the full protocol with switch-side
// aggregation (the aggregator baseline keeps its own combining path).
func (c *Controller) batchingEnabled() bool {
	return c.cfg.BatchSize > 1 && c.cfg.Protocol == ProtoCicero && c.cfg.Aggregation == AggSwitch
}

// signUpdateBatch builds the Merkle tree over the batch's updates (leaf
// order: delivery order of events, plan order within each event — identical
// on every correct controller), signs the root once, and records each
// update's inclusion proof for dispatch.
func (c *Controller) signUpdateBatch(plans []scheduler.Plan) {
	var leaves [][]byte
	for _, plan := range plans {
		for _, su := range plan {
			leaves = append(leaves, openflow.CanonicalUpdateBytes(su.ID, c.phase, []openflow.FlowMod{su.Mod}))
		}
	}
	if len(leaves) == 0 {
		return
	}
	tree := merkle.NewTree(leaves)
	root := tree.Root()
	// One signing ceremony for the whole batch — the amortization this
	// entire layer exists for.
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.BLSSignShare)
	var shareBytes []byte
	if c.cfg.CryptoReal && c.cfg.Share.Scalar != nil {
		share := c.cfg.Scheme.SignShare(c.cfg.Share, protocol.BatchBytes(c.phase, root[:]))
		shareBytes = c.cfg.Scheme.Params.PointBytes(share.Point)
	}
	idx := 0
	for _, plan := range plans {
		for _, su := range plan {
			c.batchOf[su.ID.String()] = &batchRef{
				phase: c.phase,
				root:  root[:],
				index: idx,
				count: len(leaves),
				proof: tree.Proof(idx),
				share: shareBytes,
			}
			idx++
		}
	}
	c.BatchesSigned++
}

// sendBatchUpdate sends one update with its batch root, inclusion proof,
// the (per-batch) root signature share, and a per-update Ed25519 release
// attestation. The BLS share was computed once in signUpdateBatch; only
// the cheap release signature is per-dispatch — it is what lets the
// switch count this controller toward the update's release quorum by
// authenticated identity rather than by a self-declared share index.
func (c *Controller) sendBatchUpdate(id openflow.MsgID, mods []openflow.FlowMod, ref *batchRef, resend bool) {
	if len(mods) == 0 || c.cfg.Share.Scalar == nil {
		return // a retired member holds no share to contribute
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.Ed25519Sign)
	var releaseSig []byte
	if c.cfg.CryptoReal {
		releaseSig = c.cfg.Keys.Sign(protocol.BatchReleaseBytes(id, ref.phase, ref.root))
	}
	msg := protocol.MsgBatchUpdate{
		UpdateID:   id,
		Mods:       mods,
		Phase:      ref.phase,
		From:       c.cfg.ID,
		BatchRoot:  ref.root,
		LeafIndex:  ref.index,
		LeafCount:  ref.count,
		Proof:      ref.proof,
		ShareIndex: c.cfg.Share.Index,
		Share:      ref.share,
		ReleaseSig: releaseSig,
		Resend:     resend,
	}
	size := 256*len(mods) + merkle.HashSize*(len(ref.proof)+2) + 64
	c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(mods[0].Switch), msg, size)
}
