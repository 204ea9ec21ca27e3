// Package protocol defines the wire vocabulary shared by Cicero's data
// plane and control plane — events, signed updates, acknowledgements,
// aggregator assignment, membership/resharing messages, heartbeats — plus
// the calibrated cost model that maps cryptographic and processing work to
// simulated time.
package protocol

import (
	"encoding/hex"
	"fmt"
	"strconv"

	"cicero/internal/openflow"
	"cicero/internal/tcrypto/dkg"
	"cicero/internal/tcrypto/pki"
)

// EventKind distinguishes the causes of network updates.
type EventKind int

// Event kinds. Start at 1 so the zero value is invalid.
const (
	// EventFlowRequest reports an unroutable packet (OpenFlow table miss).
	EventFlowRequest EventKind = iota + 1
	// EventFlowTeardown asks for a flow's rules to be removed (the
	// unamortized setup/teardown mode of §6.2).
	EventFlowTeardown
	// EventLinkDown reports a failed link (Fig. 2 scenario).
	EventLinkDown
	// EventPolicyChange carries an administrator policy update (Fig. 1).
	EventPolicyChange
	// EventMembershipInfo informs a domain about another domain's
	// control-plane membership change (§4.3 final step).
	EventMembershipInfo
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventFlowRequest:
		return "flow-request"
	case EventFlowTeardown:
		return "flow-teardown"
	case EventLinkDown:
		return "link-down"
	case EventPolicyChange:
		return "policy-change"
	case EventMembershipInfo:
		return "membership-info"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is a network event entering the control plane.
type Event struct {
	ID   openflow.MsgID
	Kind EventKind
	// Src and Dst are flow endpoints for flow events; Src/Dst name the
	// link ends for EventLinkDown.
	Src string
	Dst string
	// Cookie tags flow-scoped rules for teardown.
	Cookie uint64
	// Forwarded marks an event relayed from another domain; it must be
	// processed locally and never forwarded again (§4.1).
	Forwarded bool
	// Info carries opaque payload for policy/membership events.
	Info string
}

// Encode serializes the event for signing and broadcast.
func (e Event) Encode() []byte { return encodePayload(e) }

// DecodeEvent parses an encoded event.
func DecodeEvent(data []byte) (Event, error) { return decodePayload[Event](data) }

// MsgEvent carries an event from its source to one controller, in an
// envelope tagged for that controller (pki.Link).
type MsgEvent struct {
	Env pki.Envelope
}

// MsgUpdate is one controller's (threshold-share-)signed network update
// sent to a switch or to the aggregator.
type MsgUpdate struct {
	UpdateID openflow.MsgID
	Mods     []openflow.FlowMod
	Phase    uint64
	// From identifies the signing controller.
	From pki.Identity
	// ShareIndex is the controller's threshold-share index; Share is its
	// BLS signature share over CanonicalUpdateBytes. Empty for the
	// centralized and crash-tolerant baselines.
	ShareIndex uint32
	Share      []byte
	// Resend marks a recovery retransmission: a switch that already
	// applied the update re-acknowledges instead of silently dropping the
	// duplicate. Ordinary quorum traffic leaves it false so late shares do
	// not amplify into ack storms.
	Resend bool
}

// MsgAggUpdate is an aggregator-combined update carrying the full
// threshold signature, verified by the switch in a single operation.
type MsgAggUpdate struct {
	UpdateID  openflow.MsgID
	Mods      []openflow.FlowMod
	Phase     uint64
	Signature []byte
	// Resend marks a recovery retransmission (see MsgUpdate.Resend).
	Resend bool
}

// MsgBatchUpdate is one controller's batch-amortized signed update: the
// update itself plus a Merkle inclusion proof tying it to a batch root.
// The signature share covers BatchBytes(Phase, BatchRoot) — one share
// computation per batch, reused across every update in it — and the switch
// combines a quorum of root shares once per batch, then admits each member
// update with pure hashing (proof verification against the verified root).
type MsgBatchUpdate struct {
	UpdateID openflow.MsgID
	Mods     []openflow.FlowMod
	Phase    uint64
	// From identifies the signing controller.
	From pki.Identity
	// BatchRoot is the Merkle root over the canonical bytes
	// (CanonicalUpdateBytes) of every update in the batch, in batch order.
	// LeafIndex and LeafCount locate this update's leaf in that tree and
	// Proof is its audit path (sibling hashes, leaf to root).
	BatchRoot []byte
	LeafIndex int
	LeafCount int
	Proof     [][]byte
	// ShareIndex is the controller's threshold-share index; Share is its
	// BLS signature share over BatchBytes(Phase, BatchRoot).
	ShareIndex uint32
	Share      []byte
	// ReleaseSig is From's Ed25519 signature over
	// BatchReleaseBytes(UpdateID, Phase, BatchRoot) — the per-update
	// release attestation. The root share only vouches for the batch's
	// content; ReleaseSig is what binds "controller From released this
	// member now" to an identity the switch can authenticate, so a
	// Byzantine controller cannot fabricate the quorum of distinct
	// senders that gates an update's apply (it holds only its own key).
	ReleaseSig []byte
	// Resend marks a recovery retransmission (see MsgUpdate.Resend).
	Resend bool
}

// BatchBytes is the canonical byte string threshold-signed for a batch of
// updates: the membership phase and the Merkle root over the batch's
// canonical update bytes. Signing the root (rather than each update)
// preserves the no-forged-rule guarantee because the root binds every
// leaf's exact content and position, and switches only act on updates with
// a valid inclusion proof against a quorum-verified root.
func BatchBytes(phase uint64, root []byte) []byte {
	b := make([]byte, 0, 48+2*len(root))
	b = append(b, "batch|phase="...)
	b = strconv.AppendUint(b, phase, 10)
	b = append(b, "|root="...)
	return hex.AppendEncode(b, root)
}

// BatchReleaseBytes is the canonical byte string a controller Ed25519-signs
// when it releases one member of a batch (MsgBatchUpdate.ReleaseSig). It
// binds the update's identity, the membership phase, and the batch root;
// the update's content is already bound to the root by the inclusion
// proof, so the triple suffices to make the release attestation
// unforgeable and non-transplantable across batches.
func BatchReleaseBytes(id openflow.MsgID, phase uint64, root []byte) []byte {
	b := make([]byte, 0, 80+len(id.Origin)+2*len(root))
	b = append(b, "batch-release|update="...)
	b = id.AppendTo(b)
	b = append(b, "|phase="...)
	b = strconv.AppendUint(b, phase, 10)
	b = append(b, "|root="...)
	return hex.AppendEncode(b, root)
}

// Ack is a switch's acknowledgement that an update was applied. It does not
// name the switch: an ack speaks for whoever sealed its envelope.
type Ack struct {
	UpdateID openflow.MsgID
	// Applied is false if the update was rejected (invalid signature).
	Applied bool
}

// Encode serializes the ack for signing.
func (a Ack) Encode() []byte { return encodePayload(a) }

// DecodeAck parses an encoded ack.
func DecodeAck(data []byte) (Ack, error) { return decodePayload[Ack](data) }

// MsgAck carries an ack from a switch to one controller, in an envelope
// tagged for that controller (pki.Link).
type MsgAck struct {
	Env pki.Envelope
}

// MsgConfig is a threshold-signed control-plane configuration pushed to
// switches after bootstrap and after every membership change: the current
// phase, the share quorum, the membership (for event multicast and acks),
// and the aggregator assignment (the OpenFlow master/slave role mechanism
// of §5.1; empty in switch-aggregation mode). The signature verifies
// against the never-changing threshold public key, so switches need no
// other key material.
type MsgConfig struct {
	Phase      uint64
	Quorum     int
	Members    []pki.Identity
	Aggregator pki.Identity
	// GroupKey carries the post-reshare public key material
	// (*bls.GroupKey: same public key, fresh Feldman commitments) so
	// switches can keep verifying signature shares. It is public
	// information whose integrity is protected by Signature, which
	// verifies against the unchanged group public key.
	GroupKey  any `wire:"groupkey"`
	Signature []byte
}

// ConfigBytes is the canonical byte string threshold-signed for a
// control-plane configuration.
func ConfigBytes(phase uint64, quorum int, members []pki.Identity, aggregator pki.Identity) []byte {
	s := fmt.Sprintf("config|phase=%d|t=%d|agg=%s", phase, quorum, aggregator)
	for _, m := range members {
		s += "|" + string(m)
	}
	return []byte(s)
}

// MsgConfigShare is one controller's signature share over ConfigBytes,
// sent to the config leader (lowest-identifier member) for combination.
type MsgConfigShare struct {
	Phase      uint64
	Quorum     int
	Members    []pki.Identity
	Aggregator pki.Identity
	ShareIndex uint32
	Share      []byte
}

// MsgStateTransfer bootstraps a joining controller (§4.3 step iv): the
// membership, phase, group key (public material only), peer-domain view,
// and the pending change it must participate in. In the real system this
// rides an encrypted channel; the simulation passes the values directly.
type MsgStateTransfer struct {
	Phase       uint64
	NewPhase    uint64
	Members     []pki.Identity // membership before the change
	NewMembers  []pki.Identity
	GroupKey    any `wire:"groupkey"` // *bls.GroupKey (any avoids an import cycle)
	PeerDomains map[int][]pki.Identity
}

// MembershipOp is a control-plane membership change.
type MembershipOp int

// Membership operations. Start at 1 so the zero value is invalid.
const (
	MemberAdd MembershipOp = iota + 1
	MemberRemove
)

// String names the operation.
func (op MembershipOp) String() string {
	if op == MemberAdd {
		return "add"
	}
	return "remove"
}

// MembershipChange is agreed through the atomic broadcast before any
// resharing begins (Fig. 8c).
type MembershipChange struct {
	Op MembershipOp
	// Controller is the identity being added or removed.
	Controller pki.Identity
}

// BroadcastItem is the payload the control plane atomically broadcasts:
// either an event or a membership change. It names neither its membership
// phase (MsgBFT.Phase and the per-phase replica keep epochs apart) nor the
// controller that submitted it: every member that hears an event submits the
// same bytes, and the broadcast orders them once.
type BroadcastItem struct {
	Event      *Event
	Membership *MembershipChange
}

// Encode serializes the item for the atomic broadcast.
func (it BroadcastItem) Encode() []byte { return encodePayload(it) }

// DecodeBroadcastItem parses a broadcast payload.
func DecodeBroadcastItem(data []byte) (BroadcastItem, error) {
	return decodePayload[BroadcastItem](data)
}

// MsgReshareDeal is a resharing dealer's broadcast to the (new) control
// plane during a membership change.
type MsgReshareDeal struct {
	Phase uint64
	Deal  *dkg.ReshareDeal
}

// MsgReshareSub is a dealer's private sub-share to one new member.
type MsgReshareSub struct {
	Phase uint64
	Sub   dkg.SubShare
}

// MsgHeartbeat is the failure detector's liveness probe. Like every message
// below that answers or vouches for its sender, it carries no sender field:
// the receiver takes the sender from the fabric.
type MsgHeartbeat struct {
	Seq uint64
}

// MsgRecoverRequest is a restarted controller's plea for state: it lost
// all volatile state in a crash and asks its peers for the delivered
// event history and the atomic broadcast's coordinates.
type MsgRecoverRequest struct {
	Phase uint64
}

// MsgRecoverState is one peer's answer to a MsgRecoverRequest: the
// canonical encodings of every event it has appended to its audit ledger,
// in broadcast delivery order, plus its broadcast coordinates. The
// recovering controller adopts only a prefix vouched for by f+1
// pairwise-consistent responses, so a single Byzantine peer cannot feed
// it fabricated history.
type MsgRecoverState struct {
	Phase         uint64
	View          uint64
	LastDelivered uint64
	Events        [][]byte
}

// MsgResyncRequest is a restarted switch's plea for its flow table: it
// asks every controller to retransmit (with Resend set and fresh
// signature shares) the updates previously dispatched to it, the sender.
// The flow table rebuilds through the normal quorum-authenticated path, so
// a forged resync answer is no more powerful than a forged update.
type MsgResyncRequest struct{}

// MsgBFT wraps an atomic-broadcast protocol message between two
// controllers of the same domain. Phase scopes the message to a
// membership epoch: the broadcast group is rebuilt on every membership
// change, and messages from other epochs are buffered or dropped.
type MsgBFT struct {
	Phase uint64
	Inner any `wire:"bft"`
}
