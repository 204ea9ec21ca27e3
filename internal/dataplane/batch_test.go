package dataplane

import (
	"fmt"
	"testing"

	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/merkle"
)

// batchHarness is the switch harness; its controller Ed25519 keys sign (and
// forge) batch release attestations in these tests.
type batchHarness struct {
	*harness
}

func newBatchHarness(t *testing.T, mode Mode, cryptoReal bool) *batchHarness {
	t.Helper()
	return &batchHarness{harness: newHarness(t, mode, cryptoReal)}
}

// twoUpdateBatch builds a two-leaf batch over updates for dst "bA"/"bB".
type testBatch struct {
	ids   [2]openflow.MsgID
	mods  [2]openflow.FlowMod
	tree  *merkle.Tree
	root  []byte
	proof [2][][]byte
}

func makeTestBatch() *testBatch {
	tb := &testBatch{}
	for i, dst := range []string{"bA", "bB"} {
		tb.ids[i] = openflow.MsgID{Origin: "batch", Seq: uint64(i + 1)}
		tb.mods[i] = mod(dst)
	}
	leaves := [][]byte{
		openflow.CanonicalUpdateBytes(tb.ids[0], 0, []openflow.FlowMod{tb.mods[0]}),
		openflow.CanonicalUpdateBytes(tb.ids[1], 0, []openflow.FlowMod{tb.mods[1]}),
	}
	tb.tree = merkle.NewTree(leaves)
	root := tb.tree.Root()
	tb.root = root[:]
	tb.proof[0] = tb.tree.Proof(0)
	tb.proof[1] = tb.tree.Proof(1)
	return tb
}

// batchMsg builds one honest MsgBatchUpdate for batch member `leaf`, sent
// and release-signed by controller `ctl` with its genuine root share.
func (bh *batchHarness) batchMsg(tb *testBatch, leaf, ctl int) protocol.MsgBatchUpdate {
	id := controllerIDs[ctl]
	share := bh.scheme.SignShare(bh.shares[ctl], protocol.BatchBytes(0, tb.root))
	return protocol.MsgBatchUpdate{
		UpdateID:   tb.ids[leaf],
		Mods:       []openflow.FlowMod{tb.mods[leaf]},
		Phase:      0,
		From:       id,
		BatchRoot:  tb.root,
		LeafIndex:  leaf,
		LeafCount:  2,
		Proof:      tb.proof[leaf],
		ShareIndex: bh.shares[ctl].Index,
		Share:      bh.scheme.Params.PointBytes(share.Point),
		ReleaseSig: bh.ctlKeys[id].Sign(protocol.BatchReleaseBytes(tb.ids[leaf], 0, tb.root)),
	}
}

// TestBatchReleaseQuorumCountsIdentities exercises the honest path: two
// distinct controllers attest a member's release, the root verifies once,
// and both members apply as their own quorums complete.
func TestBatchReleaseQuorumCountsIdentities(t *testing.T) {
	bh := newBatchHarness(t, ModeThreshold, true)
	tb := makeTestBatch()
	bh.sw.HandleMessage("c1", bh.batchMsg(tb, 0, 0))
	if bh.sw.UpdatesApplied != 0 {
		t.Fatal("applied below release quorum")
	}
	bh.sw.HandleMessage("c2", bh.batchMsg(tb, 0, 1))
	if bh.sw.UpdatesApplied != 1 {
		t.Fatalf("applied %d after quorum, want 1", bh.sw.UpdatesApplied)
	}
	// Second member rides the verified root but still needs its own quorum.
	bh.sw.HandleMessage("c3", bh.batchMsg(tb, 1, 2))
	if bh.sw.UpdatesApplied != 1 {
		t.Fatal("second member applied with a single release attestation")
	}
	bh.sw.HandleMessage("c4", bh.batchMsg(tb, 1, 3))
	if bh.sw.UpdatesApplied != 2 {
		t.Fatalf("applied %d after both quorums, want 2", bh.sw.UpdatesApplied)
	}
}

// TestBatchEarlyReleaseAttackRejected is the regression test for the
// unauthenticated release quorum: once a batch root is quorum-verified via
// honest traffic for one member, a single Byzantine controller — which
// holds the delivered batch and can compute every member's valid inclusion
// proof — replays another member under fabricated share indexes and forged
// identities. None of that may count as more than one release attestation.
func TestBatchEarlyReleaseAttackRejected(t *testing.T) {
	bh := newBatchHarness(t, ModeThreshold, true)
	tb := makeTestBatch()

	// Honest quorum verifies the root through member 0.
	bh.sw.HandleMessage("c1", bh.batchMsg(tb, 0, 0))
	bh.sw.HandleMessage("c2", bh.batchMsg(tb, 0, 1))
	if bh.sw.UpdatesApplied != 1 {
		t.Fatalf("honest member did not apply (applied=%d)", bh.sw.UpdatesApplied)
	}

	// c1 turns Byzantine and floods member 1 with fabricated share
	// indexes: every copy authenticates as c1 and counts once.
	for idx := uint32(1); idx <= 4; idx++ {
		m := bh.batchMsg(tb, 1, 0)
		m.ShareIndex = idx
		bh.sw.HandleMessage("c1", m)
	}
	if bh.sw.UpdatesApplied != 1 {
		t.Fatalf("early release: fabricated share indexes reached quorum (applied=%d)", bh.sw.UpdatesApplied)
	}

	// Forged identities fail the directory check: c1 cannot sign for c3,
	// and unknown identities are not members.
	m := bh.batchMsg(tb, 1, 0)
	m.From = controllerIDs[2]
	bh.sw.HandleMessage("c1", m)
	m = bh.batchMsg(tb, 1, 0)
	m.From = "intruder"
	bh.sw.HandleMessage("c1", m)
	if bh.sw.UpdatesApplied != 1 {
		t.Fatalf("early release: forged identity accepted (applied=%d)", bh.sw.UpdatesApplied)
	}

	// A genuine second controller completes the quorum.
	bh.sw.HandleMessage("c3", bh.batchMsg(tb, 1, 2))
	if bh.sw.UpdatesApplied != 2 {
		t.Fatalf("honest completion failed (applied=%d)", bh.sw.UpdatesApplied)
	}
}

// TestBatchSharePoisoningHealedByRetransmission covers the share pool's
// overwrite semantics: a garbage share claiming an honest controller's
// index must not permanently block the batch — the index owner's real
// share overwrites it on (re)transmission, exactly like the legacy path.
func TestBatchSharePoisoningHealedByRetransmission(t *testing.T) {
	bh := newBatchHarness(t, ModeThreshold, true)
	tb := makeTestBatch()

	// c1 poisons index 2 (c2's) with garbage before c2's share arrives.
	poison := bh.batchMsg(tb, 0, 0)
	poison.ShareIndex = 2
	poison.Share = []byte("garbage-share")
	bh.sw.HandleMessage("c1", poison)

	// c2's real message lands on the poisoned index and must overwrite;
	// combined with c1's (never-sent) share the pool is still short, so
	// c3 completes the quorum.
	bh.sw.HandleMessage("c2", bh.batchMsg(tb, 0, 1))
	bh.sw.HandleMessage("c3", bh.batchMsg(tb, 0, 2))
	if bh.sw.UpdatesApplied != 1 {
		t.Fatalf("poisoned share pool stalled the batch (applied=%d, rejected=%d)",
			bh.sw.UpdatesApplied, bh.sw.UpdatesRejected)
	}
}

// TestBatchAggregatedModeRejected mirrors the legacy mode gate: per-share
// batch traffic is not accepted in aggregated mode.
func TestBatchAggregatedModeRejected(t *testing.T) {
	bh := newBatchHarness(t, ModeAggregated, false)
	tb := makeTestBatch()
	bh.sw.HandleMessage("c1", bh.batchMsg(tb, 0, 0))
	if bh.sw.UpdatesRejected != 1 || bh.sw.UpdatesApplied != 0 {
		t.Fatalf("batch share in aggregated mode: applied=%d rejected=%d",
			bh.sw.UpdatesApplied, bh.sw.UpdatesRejected)
	}
}

// TestPendingBatchPoolBounded floods the switch with valid-looking
// single-leaf batches under distinct roots (keyless hashing lets any
// sender mint them); the pool must stay capped instead of growing for the
// switch's lifetime.
func TestPendingBatchPoolBounded(t *testing.T) {
	bh := newBatchHarness(t, ModeThreshold, false)
	for i := 0; i < maxPendingBatches+64; i++ {
		id := openflow.MsgID{Origin: "flood", Seq: uint64(i + 1)}
		m := mod(fmt.Sprintf("f%d", i))
		leaf := openflow.CanonicalUpdateBytes(id, 0, []openflow.FlowMod{m})
		root := merkle.LeafHash(leaf)
		bh.sw.HandleMessage("c1", protocol.MsgBatchUpdate{
			UpdateID:   id,
			Mods:       []openflow.FlowMod{m},
			Phase:      0,
			From:       controllerIDs[0],
			BatchRoot:  root[:],
			LeafIndex:  0,
			LeafCount:  1,
			ShareIndex: 1,
			Share:      []byte{1},
		})
	}
	if got := len(bh.sw.pools); got > maxPendingBatches {
		t.Fatalf("pending batch pool grew to %d, cap is %d", got, maxPendingBatches)
	}
}

// TestVerifiedBatchesDoNotEvictInFlightPool is the regression test for the
// switch that wedged after maxPendingBatches batch roots: verified pools
// are never retired by anything but eviction, and with one shared budget a
// map full of them made every new root evict the oldest UNVERIFIED pool,
// i.e. the batch in flight. The stream below keeps two roots in flight
// (root i+1's first share arrives before root i's second), as any loaded
// control plane does; every one of 3·maxPendingBatches single-member
// batches must reach its quorum and apply, and the pool must stay within
// its two budgets.
func TestVerifiedBatchesDoNotEvictInFlightPool(t *testing.T) {
	bh := newBatchHarness(t, ModeThreshold, false)
	const total = 3 * maxPendingBatches
	msg := func(i, ctl int) protocol.MsgBatchUpdate {
		id := openflow.MsgID{Origin: "stream", Seq: uint64(i + 1)}
		m := mod(fmt.Sprintf("s%d", i))
		root := merkle.LeafHash(openflow.CanonicalUpdateBytes(id, 0, []openflow.FlowMod{m}))
		return protocol.MsgBatchUpdate{
			UpdateID:   id,
			Mods:       []openflow.FlowMod{m},
			From:       controllerIDs[ctl],
			BatchRoot:  root[:],
			LeafCount:  1,
			ShareIndex: uint32(ctl + 1),
			Share:      []byte{1},
		}
	}
	bh.sw.HandleMessage("c1", msg(0, 0))
	for i := 0; i < total; i++ {
		if i+1 < total {
			bh.sw.HandleMessage("c1", msg(i+1, 0))
		}
		bh.sw.HandleMessage("c2", msg(i, 1))
		if bh.sw.UpdatesApplied != uint64(i+1) {
			t.Fatalf("after root %d: applied %d updates, want %d", i+1, bh.sw.UpdatesApplied, i+1)
		}
		if got := len(bh.sw.pools); got > 2*maxPendingBatches {
			t.Fatalf("pool grew to %d entries, budgets allow %d", got, 2*maxPendingBatches)
		}
	}
}

// TestBatchStalePhaseDropped checks the config-push cleanup: pool entries
// from earlier membership phases are discarded when a new phase installs.
func TestBatchStalePhaseDropped(t *testing.T) {
	bh := newBatchHarness(t, ModeThreshold, false)
	tb := makeTestBatch()
	bh.sw.HandleMessage("c1", bh.batchMsg(tb, 0, 0))
	if len(bh.sw.pools) != 1 {
		t.Fatalf("pool has %d entries, want 1", len(bh.sw.pools))
	}
	bh.sw.dropStaleBatches(1)
	if len(bh.sw.pools) != 0 {
		t.Fatalf("stale-phase entries survived: %d", len(bh.sw.pools))
	}
}

// TestBatchMemberDecidedPerUpdateIsSkipped: an update can sit in a batch
// root's pool and in its own per-update pool at once (retransmissions go
// share by share). Whichever pool verifies first decides it; the other
// must skip it on release instead of applying and acking twice.
func TestBatchMemberDecidedPerUpdateIsSkipped(t *testing.T) {
	bh := newBatchHarness(t, ModeThreshold, true)
	tb := makeTestBatch()
	// Member 1 gathers its sender quorum, but c1's root share is garbage:
	// the root pool stays unverified.
	poisoned := bh.batchMsg(tb, 1, 0)
	poisoned.Share = []byte("garbage-share")
	bh.sw.HandleMessage("c1", poisoned)
	bh.sw.HandleMessage("c2", bh.batchMsg(tb, 1, 1))
	if bh.sw.UpdatesApplied != 0 {
		t.Fatal("member applied over a poisoned root quorum")
	}
	// The same update completes share by share.
	bh.sw.HandleMessage("c3", bh.shareMsg(t, 2, tb.ids[1], tb.mods[1]))
	bh.sw.HandleMessage("c4", bh.shareMsg(t, 3, tb.ids[1], tb.mods[1]))
	if bh.sw.UpdatesApplied != 1 {
		t.Fatalf("per-update quorum applied %d updates, want 1", bh.sw.UpdatesApplied)
	}
	// c3's root share heals the batch pool; member 1 is ready there too.
	bh.sw.HandleMessage("c3", bh.batchMsg(tb, 0, 2))
	if bh.sw.UpdatesApplied != 1 {
		t.Fatalf("decided member re-applied by the batch pool (applied=%d)", bh.sw.UpdatesApplied)
	}
	if len(bh.sw.pools) != 1 {
		t.Fatalf("%d pools left, want only the verified batch root's", len(bh.sw.pools))
	}
}
