package bft

import "cicero/internal/fabric"

// FabricTransport adapts the fabric seam to the replica Transport: every
// replica message travels as one fabric datagram. It is the single
// transport used by the control plane on all backends (simnet, in-proc,
// TCP) — the control plane supplies Peer to map replica slots onto its
// current membership and Wrap to tag messages with its epoch.
type FabricTransport struct {
	// Fab carries the messages; Self is the sending node.
	Fab  fabric.Fabric
	Self fabric.NodeID
	// Peer resolves a replica id to its fabric node. Returning ok=false
	// drops the send (e.g. a slot beyond the current membership).
	Peer func(to ReplicaID) (fabric.NodeID, bool)
	// Wrap, when non-nil, envelopes the replica message before sending
	// (the control plane tags messages with its membership epoch). When
	// nil the bare bft message is sent.
	Wrap func(msg Message) fabric.Message
}

// wireSize is the per-message size estimate charged to the fabric (the
// simnet cost model's BFT estimate).
const wireSize = 256

var _ Transport = (*FabricTransport)(nil)

// Send implements Transport.
func (t *FabricTransport) Send(to ReplicaID, msg Message) {
	peer, ok := t.Peer(to)
	if !ok {
		return
	}
	out := fabric.Message(msg)
	if t.Wrap != nil {
		out = t.Wrap(msg)
	}
	t.Fab.Send(t.Self, peer, out, wireSize)
}
