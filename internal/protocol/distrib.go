package protocol

// Wire vocabulary for the multi-process deployment (internal/distrib):
// the signed provisioning bundle a cicero-node process boots from, the
// hello/snapshot handshake between node processes and the supervising
// driver, and the driver's workload-control messages. WireCodec registers
// them all (wire.go); the bundle's threshold-key material (group key, BLS
// share) rides its point and scalar hooks.

import (
	"cicero/internal/openflow"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/pki"
)

// WireGraphNode is one topology node in a bundle's explicit graph.
type WireGraphNode struct {
	ID   string
	Kind int
	DC   int
	Pod  int
	Rack int
}

// WireGraphLink is one undirected topology link in a bundle's graph.
type WireGraphLink struct {
	A         string
	B         string
	LatencyNS int64
	Gbps      float64
}

// Node roles a bundle can provision.
const (
	RoleController = "controller"
	RoleSwitch     = "switch"
)

// NodeBundle is the complete provisioning for one node of a distributed
// deployment: identity key seed, the PKI directory, threshold material,
// membership, and the data-plane topology. The deployment planner signs
// the encoded bundle with the deployment key; cicero-node refuses to
// boot from a bundle whose signature does not verify against its trust
// anchor.
type NodeBundle struct {
	// Role is RoleController or RoleSwitch.
	Role string
	// ID is the node's fabric/PKI identity.
	ID string
	// Domain and Slot locate a controller (slot indexes Members).
	Domain int
	Slot   int
	// Driver is the supervising driver's node id (hello/snapshot target).
	Driver string
	// Members lists the domain's controllers; Switches its data plane.
	Members  []pki.Identity
	Switches []string
	// PeerDomains maps every domain to its controllers.
	PeerDomains map[int][]pki.Identity
	// Quorum is the threshold t; Aggregator the designated aggregator
	// ("" in switch-aggregation mode).
	Quorum     int
	Aggregator pki.Identity
	// KeySeed is the node's Ed25519 private-key seed.
	KeySeed []byte
	// Directory maps every identity to its Ed25519 public key.
	Directory map[pki.Identity][]byte
	// GroupKey and Share are the domain's threshold material (Share only
	// for controllers).
	GroupKey *bls.GroupKey
	Share    bls.KeyShare
	// Bootstrap marks the domain's initial broadcast leader.
	Bootstrap bool
	// BatchSize and BatchDelayNS configure batched ordering; timeouts in
	// nanoseconds so the bundle stays a plain byte-stable encoding.
	BatchSize           int
	BatchDelayNS        int64
	ViewChangeTimeoutNS int64
	// GraphNodes and GraphLinks serialize the data-plane topology.
	GraphNodes []WireGraphNode
	GraphLinks []WireGraphLink
	// MetaGenesis, when its Role is set, is the domain's threshold-signed
	// root of trust: the ONLY metadata the bundle carries. Everything
	// below the root (targets, snapshot, timestamp) arrives through the
	// verified distribution path and is checked against it, so a
	// compromised provisioning channel cannot pre-seed a store with
	// documents the root never delegated.
	MetaGenesis MetaEnvelope
}

// MsgNodeHello announces a booted (or rebooted) node process to the
// driver: the address its fresh listener bound, its boot epoch, and its
// OS process id.
type MsgNodeHello struct {
	ID        string
	Addr      string
	BootEpoch uint32
	PID       int
}

// MsgNodeQuery asks a node process for a state snapshot; the nonce pairs
// the reply with the request.
type MsgNodeQuery struct {
	Nonce uint64
}

// SnapshotRecord is one audit-ledger record in digest form: enough for
// cross-process prefix comparison and the no-forged-rule check without
// shipping canonical payloads.
type SnapshotRecord struct {
	Seq     uint64
	Kind    string
	Subject string
	// Digest is SHA-256 of the record's canonical bytes.
	Digest []byte
}

// SnapshotApply is one switch apply decision (valid or rejected) with
// the digest of the canonical update bytes it committed to.
type SnapshotApply struct {
	Origin string
	Seq    uint64
	Phase  uint64
	Digest []byte
	Valid  bool
}

// MsgNodeSnapshot is a node process's state snapshot, sent to the driver
// in reply to MsgNodeQuery. Controllers fill the ledger/broadcast
// fields; switches the table/apply fields.
type MsgNodeSnapshot struct {
	Nonce uint64
	ID    string
	Role  string

	// Controller state.
	View          uint64
	LastDelivered uint64
	Records       []SnapshotRecord
	// ChainDigest is the audit hash chain's final hash — the
	// order-sensitive commitment; two processes share it only when their
	// ledgers are byte- and order-identical.
	ChainDigest []byte
	// ContentDigest is the order-insensitive ledger commitment
	// (audit.ContentDigest): concurrent flows reach the atomic broadcast
	// in timing-dependent interleavings of event and update records, so
	// cross-process agreement at convergence is "same decisions, any
	// order" — this digest must be identical on every honest controller.
	ContentDigest []byte
	Recovering    bool
	Recovered     bool

	// Switch state.
	Rules           []openflow.Rule
	Applies         []SnapshotApply
	UpdatesApplied  uint64
	UpdatesRejected uint64
}

// MsgInjectFlow asks an ingress switch process to simulate a packet
// arrival for (Src, Dst); the process replies with MsgFlowDone once the
// resulting rule is installed.
type MsgInjectFlow struct {
	FlowID uint64
	Src    string
	Dst    string
}

// MsgFlowDone reports a flow's rule installed at the ingress switch.
type MsgFlowDone struct {
	FlowID uint64
	Switch string
}

// Nudge operations (MsgNudge.Op).
const (
	// NudgeResendEvents makes a switch retransmit its unconfirmed events.
	NudgeResendEvents = "resend-events"
	// NudgeRedispatch makes a controller redispatch unacked updates.
	NudgeRedispatch = "redispatch"
	// NudgeRecover makes a controller start peer state transfer (the
	// crash-recovery path) without having crashed: the rescue for a
	// replica whose broadcast wedged below a delivery gap — a partition
	// window can swallow the prepares for a sequence its peers then
	// deliver and garbage-collect, and sequential delivery blocks there
	// forever while the quorum moves on.
	NudgeRecover = "recover"
)

// MsgNudge is a driver liveness nudge, mirroring the in-process drain
// helpers the chaos campaigns use.
type MsgNudge struct {
	Op string
}
