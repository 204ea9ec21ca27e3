// Package controlplane implements the Cicero controller runtime (Fig. 7
// and Fig. 8 of the paper): event verification and deduplication, atomic
// broadcast of events, independent computation and threshold-share signing
// of network updates, dependency-driven parallel dispatch released by
// switch acknowledgements, the optional controller-aggregation mode, the
// failure detector, and control-plane membership changes with distributed
// resharing.
//
// The same runtime also hosts the two baselines the paper compares
// against: a centralized controller (no replication, no signatures) and a
// crash-tolerant replicated control plane (atomic broadcast, no quorum
// authentication).
package controlplane

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"cicero/internal/audit"
	"cicero/internal/bft"
	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/routing"
	"cicero/internal/scheduler"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/pki"
)

// Protocol selects the control-plane protocol under evaluation.
type Protocol int

// Protocols. Start at 1 so the zero value is invalid.
const (
	// ProtoCentralized is the single-controller baseline.
	ProtoCentralized Protocol = iota + 1
	// ProtoCrash replicates with crash-tolerant atomic broadcast and no
	// update authentication.
	ProtoCrash
	// ProtoCicero is the full protocol: BFT atomic broadcast plus
	// threshold-signed updates.
	ProtoCicero
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtoCentralized:
		return "centralized"
	case ProtoCrash:
		return "crash-tolerant"
	case ProtoCicero:
		return "cicero"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Aggregation selects where signature aggregation happens (§4.2).
type Aggregation int

// Aggregation modes. Start at 1 so the zero value is invalid.
const (
	// AggSwitch has every switch collect and aggregate shares.
	AggSwitch Aggregation = iota + 1
	// AggController designates the lowest-identifier controller as
	// aggregator for both events and update signatures.
	AggController
)

// FailureDetectorConfig enables heartbeat-based failure detection.
type FailureDetectorConfig struct {
	// Interval between heartbeats.
	Interval time.Duration
	// Timeout after which a silent member is suspected.
	Timeout time.Duration
	// Horizon stops the detector (so simulations quiesce).
	Horizon time.Duration
}

// Config assembles a controller.
type Config struct {
	// ID is the controller's identity and fabric node id.
	ID pki.Identity
	// Domain is this controller's update domain index.
	Domain int
	// Members is the domain's initial control plane, in membership order
	// (identifier order; never reused).
	Members []pki.Identity

	// Net is the transport seam; the same controller runs on the
	// simulator or the live backends.
	Net  fabric.Fabric
	Cost protocol.CostModel
	// Keys and Directory are the controller's identity and its peers':
	// Keys signs what third parties check (release attestations, metadata
	// roles); the pki.Link built from both opens the envelopes switches and
	// peer domains address to this controller and seals its own.
	Keys      *pki.KeyPair
	Directory *pki.Directory

	Protocol    Protocol
	Aggregation Aggregation

	// Scheme, GroupKey and Share configure threshold signing (ProtoCicero).
	// A joining controller leaves Share zero and receives key material
	// through the membership protocol.
	Scheme   *bls.Scheme
	GroupKey *bls.GroupKey
	Share    bls.KeyShare

	// App plans updates; Sched orders them.
	App   routing.App
	Sched scheduler.Scheduler

	// DomainOf maps a switch id to its domain; nil means single-domain.
	DomainOf func(switchID string) int
	// PeerDomains lists known controllers of other domains for event
	// forwarding.
	PeerDomains map[int][]pki.Identity
	// Switches lists the data-plane switches of this domain (for config
	// pushes).
	Switches []string

	// CryptoReal executes real signatures; otherwise only simulated time
	// is charged.
	CryptoReal bool
	// Bootstrap marks the trusted bootstrap controller that may initiate
	// additions (§4.3).
	Bootstrap bool
	// ViewChangeTimeout bounds atomic-broadcast stalls.
	ViewChangeTimeout time.Duration
	// FailureDetector, when non-nil, runs heartbeats.
	FailureDetector *FailureDetectorConfig

	// BatchSize > 1 enables batched atomic-broadcast ordering and (with
	// ProtoCicero + AggSwitch) batch-amortized signing: one threshold
	// signature per batch Merkle root, inclusion proofs per update. <= 1
	// keeps the original per-update path bit-identically.
	BatchSize int
	// BatchDelay bounds how long a partial batch waits before it is
	// ordered anyway (zero: the bft default).
	BatchDelay time.Duration

	// Metadata, when non-nil, enables the TUF-style signed-metadata plane
	// (ProtoCicero only; see metadata.go and internal/metarepo).
	Metadata *MetadataConfig

	// CrashRecovery marks a controller that replaces a crashed instance.
	// It is born recovering: its amnesiac broadcast replica stays mute —
	// neither voting nor proposing — until peer state transfer rebuilds
	// its coordinates (an amnesiac that votes can contradict its pre-crash
	// votes and let conflicting quorums form). Set by the deployment
	// layer's restart path; call StartRecovery to begin the transfer.
	CrashRecovery bool
}

// CiceroQuorum returns the update quorum t = ⌊(n−1)/3⌋+1 (§3.2).
func CiceroQuorum(n int) int { return (n-1)/3 + 1 }

// aggCollect buffers the shares over one update's canonical bytes at the
// aggregator. shares is keyed by share index; a later share for an index
// overwrites the earlier one.
type aggCollect struct {
	mods   []openflow.FlowMod
	shares map[uint32][]byte
	done   bool
	// sent is the combined aggregate, kept for recovery retransmission.
	sent protocol.MsgAggUpdate
}

// maxAggPending bounds the aggregator's collection map: at most this many
// open entries and, separately, this many done ones, each class a FIFO of
// its own (as the switch's pools: dataplane.maxPendingBatches). A member's
// word opens an entry, so a Byzantine member can mint open ones, which
// then displace only open entries — the retransmission paths collect
// their shares again; done entries took a quorum and displace only older
// done ones, whose aggregate a quorum of Resend shares rebuilds.
const maxAggPending = 512

// Controller is one control-plane member.
type Controller struct {
	cfg     Config
	link    *pki.Link
	members []pki.Identity
	phase   uint64

	replica *bft.Replica
	engine  *scheduler.Engine

	seenEvents      map[string]bool // receipt-level dedup
	deliveredEvents map[string]bool // delivery-level dedup
	pendingSubmit   map[string][]byte

	// Aggregator state, keyed by the digest of the bytes the shares sign
	// (openflow.CanonicalUpdateBytes): a share only ever meets shares over
	// identical content, so forged mods sent first under a real update id
	// collect in an entry of their own.
	aggPending map[[sha256.Size]byte]*aggCollect
	// aggOrder lists the keys of each class, open and done, oldest first.
	aggOrder [2][][sha256.Size]byte

	// Config-push share collection for the current phase (leader only),
	// reset when the phase advances; configDone latches the push.
	configShares map[uint32][]byte
	configDone   bool

	// dispatchLog records every update this controller signed, in release
	// order, so crash recovery can answer switch resyncs and retransmit
	// in-flight updates (see recovery.go).
	dispatchLog []dispatchRecord
	// batchOf maps an update id to its batch-amortized signing context
	// (Merkle proof + per-batch root share); retained after dispatch so
	// recovery retransmissions reuse the same proof and share.
	batchOf map[string]*batchRef
	// recovery tracks an in-flight crash recovery; recovered stays true
	// afterwards so retransmitted updates carry the Resend flag (switches
	// re-acknowledge those instead of silently dropping duplicates).
	recovery  *recoverySession
	recovered bool

	// Membership-change state (see membership.go).
	change      *changeState
	early       earlyReshare
	earlyConfig []protocol.MsgConfigShare

	// Metadata-plane state (see metadata.go); nil when disabled.
	meta *metaState

	// gapArmed is the frozen-horizon watchdog latch: set while a
	// gap-stall timer is pending (see gapstall logic in recovery.go).
	gapArmed bool

	// Failure detector state.
	lastSeen  map[pki.Identity]fabric.Time
	suspected map[pki.Identity]bool
	hbSeq     uint64

	// ledger is the §7 auditable decision chain: every delivered event
	// and signed update is appended, enabling cross-controller audits.
	ledger audit.Ledger

	stopped bool

	// Counters for experiments.
	EventsReceived  uint64
	EventsDelivered uint64
	UpdatesSigned   uint64
	AcksReceived    uint64
	Reshares        uint64
	Recoveries      uint64
	BatchesSigned   uint64
	// Metadata-plane counters.
	MetaPublished   uint64 // sets assembled and distributed (leader)
	MetaRefreshes   uint64 // timestamp refreshes minted (leader)
	MetaStaleShares uint64 // root shares rejected by the collector
	MetaSigRejects  uint64 // role signatures rejected by the collector
	// GapRecoveries counts self-initiated recoveries triggered by the
	// frozen-horizon watchdog (committed slots piling above a gap).
	GapRecoveries uint64
}

// dispatchRecord is one signed update in the dispatch log.
type dispatchRecord struct {
	id    openflow.MsgID
	phase uint64
	mods  []openflow.FlowMod
}

var _ fabric.Handler = (*Controller)(nil)

// New creates a controller and registers it on the network.
func New(cfg Config) (*Controller, error) {
	if cfg.ID == "" || cfg.Net == nil || cfg.Keys == nil || cfg.Directory == nil {
		return nil, fmt.Errorf("controlplane: incomplete config for %q", cfg.ID)
	}
	if cfg.App == nil || cfg.Sched == nil {
		return nil, fmt.Errorf("controlplane: %q: app and scheduler are required", cfg.ID)
	}
	if cfg.Protocol == ProtoCicero {
		if len(cfg.Members) < 4 {
			return nil, fmt.Errorf("controlplane: cicero requires n >= 4 controllers, got %d", len(cfg.Members))
		}
		if cfg.Scheme == nil || cfg.GroupKey == nil {
			return nil, fmt.Errorf("controlplane: %q: cicero requires threshold key material", cfg.ID)
		}
	}
	c := &Controller{
		cfg:             cfg,
		link:            pki.NewLink(cfg.Keys, cfg.Directory),
		members:         append([]pki.Identity(nil), cfg.Members...),
		seenEvents:      make(map[string]bool),
		deliveredEvents: make(map[string]bool),
		pendingSubmit:   make(map[string][]byte),
		aggPending:      make(map[[sha256.Size]byte]*aggCollect),
		configShares:    make(map[uint32][]byte),
		batchOf:         make(map[string]*batchRef),
		lastSeen:        make(map[pki.Identity]fabric.Time),
		suspected:       make(map[pki.Identity]bool),
	}
	c.engine = scheduler.NewEngine(c.dispatchUpdate)
	if cfg.Protocol != ProtoCentralized {
		if err := c.rebuildReplica(); err != nil {
			return nil, err
		}
	}
	// Arm the recovery session before the handler is registered so not a
	// single message reaches the amnesiac replica.
	if cfg.CrashRecovery && cfg.Protocol != ProtoCentralized && len(c.members) >= 2 {
		c.recovery = &recoverySession{responses: make(map[fabric.NodeID]protocol.MsgRecoverState)}
	}
	cfg.Net.Register(fabric.NodeID(cfg.ID), c)
	if cfg.FailureDetector != nil && cfg.Protocol == ProtoCicero {
		c.scheduleHeartbeat()
	}
	if err := c.initMetadata(); err != nil {
		return nil, err
	}
	return c, nil
}

// ID returns the controller's identity.
func (c *Controller) ID() pki.Identity { return c.cfg.ID }

// Members returns the current control-plane membership.
func (c *Controller) Members() []pki.Identity {
	return append([]pki.Identity(nil), c.members...)
}

// Phase returns the current membership phase.
func (c *Controller) Phase() uint64 { return c.phase }

// GroupKey returns the current threshold group key.
func (c *Controller) GroupKey() *bls.GroupKey { return c.cfg.GroupKey }

// Quorum returns the current update quorum.
func (c *Controller) Quorum() int {
	if c.cfg.Protocol != ProtoCicero {
		return 1
	}
	return CiceroQuorum(len(c.members))
}

// Stop models a crash from the inside (the simulator drops its traffic
// separately via Crash).
func (c *Controller) Stop() {
	c.stopped = true
	if c.replica != nil {
		c.replica.Stop()
	}
}

// memberSlot returns id's position in the membership list, or -1.
func (c *Controller) memberSlot(id pki.Identity) int {
	for i, m := range c.members {
		if m == id {
			return i
		}
	}
	return -1
}

// isPeer reports whether a message's sender is another current member: the
// only senders whose recovery requests are answered and whose recovery
// answers are counted.
func (c *Controller) isPeer(from fabric.NodeID) bool {
	return pki.Identity(from) != c.cfg.ID && c.memberSlot(pki.Identity(from)) >= 0
}

// isAggregator reports whether this controller currently aggregates.
func (c *Controller) isAggregator() bool {
	return c.cfg.Aggregation == AggController && len(c.members) > 0 && c.members[0] == c.cfg.ID
}

// aggregatorID returns the current aggregator identity ("" when switches
// aggregate).
func (c *Controller) aggregatorID() pki.Identity {
	if c.cfg.Aggregation == AggController && len(c.members) > 0 {
		return c.members[0]
	}
	return ""
}

// rebuildReplica (re)creates the atomic-broadcast group for the current
// membership epoch. The previous epoch's replica is stopped so its
// retransmission timers die with it.
func (c *Controller) rebuildReplica() error {
	if c.replica != nil {
		c.replica.Stop()
	}
	slot := c.memberSlot(c.cfg.ID)
	if slot < 0 {
		c.replica = nil
		return nil // removed member: no longer participates
	}
	ids := make([]bft.ReplicaID, len(c.members))
	for i := range c.members {
		ids[i] = bft.ReplicaID(i + 1)
	}
	// The paper's crash-tolerant baseline orders through BFT-SMaRt's full
	// three-phase protocol (it merely skips update authentication), so
	// ProtoCrash uses Byzantine ordering whenever the group is large
	// enough and falls back to two-phase crash ordering below n=4.
	mode := bft.ModeByzantine
	if c.cfg.Protocol == ProtoCrash && len(c.members) < 4 {
		mode = bft.ModeCrash
	}
	epoch := c.phase
	bftCfg := bft.Config{
		ID:       bft.ReplicaID(slot + 1),
		Replicas: ids,
		Mode:     mode,
		// One transport adapter serves every backend: replica slots are
		// resolved against the live membership, and messages are tagged
		// with the epoch so stale-epoch traffic is filtered on receipt.
		Transport: &bft.FabricTransport{
			Fab:  c.cfg.Net,
			Self: fabric.NodeID(c.cfg.ID),
			Peer: func(to bft.ReplicaID) (fabric.NodeID, bool) {
				slot := int(to) - 1
				if slot < 0 || slot >= len(c.members) {
					return "", false
				}
				return fabric.NodeID(c.members[slot]), true
			},
			Wrap: func(msg bft.Message) fabric.Message {
				return protocol.MsgBFT{Phase: epoch, Inner: msg}
			},
		},
		Timer: func(d time.Duration, fn func()) {
			c.cfg.Net.After(fabric.NodeID(c.cfg.ID), d, fn)
		},
		// One consumer at every batch size: a payload ordered on its own
		// is a batch of one.
		Deliver:           func(seq uint64, payload []byte) { c.onDeliver([][]byte{payload}) },
		DeliverBatch:      func(seq uint64, payloads [][]byte) { c.onDeliver(payloads) },
		ViewChangeTimeout: c.cfg.ViewChangeTimeout,
		BatchSize:         c.cfg.BatchSize,
		BatchDelay:        c.cfg.BatchDelay,
	}
	replica, err := bft.NewReplica(bftCfg)
	if err != nil {
		return fmt.Errorf("controlplane: %q: %w", c.cfg.ID, err)
	}
	c.replica = replica
	return nil
}

// HandleMessage implements fabric.Handler.
func (c *Controller) HandleMessage(from fabric.NodeID, msg fabric.Message) {
	if c.stopped {
		return
	}
	switch m := msg.(type) {
	case protocol.MsgEvent:
		c.handleEventMsg(m)
	case protocol.MsgAck:
		c.handleAckMsg(m)
	case protocol.MsgBFT:
		c.handleBFT(from, m)
	case protocol.MsgUpdate:
		c.handleUpdateShare(from, m)
	case protocol.MsgConfigShare:
		c.handleConfigShare(m)
	case protocol.MsgHeartbeat:
		if c.memberSlot(pki.Identity(from)) >= 0 {
			c.lastSeen[pki.Identity(from)] = c.cfg.Net.Now()
		}
	case protocol.MsgReshareDeal:
		if m.Deal != nil && c.sentByDealer(from, m.Deal.Dealer) {
			c.handleReshareDeal(m)
		}
	case protocol.MsgReshareSub:
		if c.sentByDealer(from, m.Sub.Dealer) {
			c.handleReshareSub(m)
		}
	case protocol.MsgStateTransfer:
		c.handleStateTransfer(from, m)
	case protocol.MsgRecoverRequest:
		c.handleRecoverRequest(from, m)
	case protocol.MsgRecoverState:
		c.handleRecoverState(from, m)
	case protocol.MsgResyncRequest:
		c.handleResyncRequest(from)
	case protocol.MsgMeta:
		c.handleMeta(m)
	case protocol.MsgMetaSet:
		c.handleMetaSet(m)
	case protocol.MsgMetaRequest:
		c.handleMetaRequest(from)
	case protocol.MsgMetaShare:
		c.handleMetaShare(m)
	case protocol.MsgMetaSig:
		c.handleMetaSig(m)
	}
}

// handleBFT feeds an atomic-broadcast message into the current epoch's
// replica; during a membership change, the next epoch's messages from its
// members are buffered until the change completes (holdBFT).
func (c *Controller) handleBFT(from fabric.NodeID, m protocol.MsgBFT) {
	if c.replica == nil {
		return
	}
	// A recovering replica lost its agreement state with the crash; until
	// state transfer restores its coordinates it must not vote, propose,
	// or join view changes — an amnesiac participant can contradict its
	// pre-crash votes and let a conflicting quorum re-assign a slot that
	// other replicas already delivered.
	if c.Recovering() {
		return
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.BFTCompute)
	switch {
	case m.Phase == c.phase:
		slot := c.memberSlot(pki.Identity(from))
		if slot < 0 {
			return
		}
		c.replica.Handle(bft.ReplicaID(slot+1), m.Inner.(bft.Message))
		c.checkGapStall()
	case m.Phase > c.phase && c.change != nil:
		c.change.holdBFT(from, m)
	}
}

// handleEventMsg processes an event from a switch or a peer domain
// (Fig. 7a): verify the source, dedup, forward cross-domain, broadcast.
func (c *Controller) handleEventMsg(m protocol.MsgEvent) {
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.Ed25519Verify+c.cfg.Cost.MsgProcess)
	payload, ok := c.open(m.Env)
	if !ok {
		return // unverifiable source: ignore (Fig. 7a)
	}
	ev, err := protocol.DecodeEvent(payload)
	if err != nil || !c.sealerMaySay(m.Env.From, ev) {
		return
	}
	c.receiveEvent(ev)
}

// sealerMaySay reports whether the identity that sealed an event envelope
// may present ev. An event speaks for its sealer: its id is the sealer's own
// or one under it ("<switch>/td"), so no switch orders, ledgers or pre-empts
// an event in another's name. A forwarded event is another domain's
// controller relaying one of its switches' events, and is believed from any
// sealer that is not a switch of this domain.
func (c *Controller) sealerMaySay(sealer pki.Identity, ev protocol.Event) bool {
	if ev.Forwarded {
		return !slices.Contains(c.cfg.Switches, string(sealer))
	}
	under, ok := strings.CutPrefix(ev.ID.Origin, string(sealer))
	return ok && (under == "" || under[0] == '/')
}

// receiveEvent is the receipt step of every event, whatever presented it (a
// sealed envelope, the driver's InjectEvent, this controller's own policy
// publication): dedup by id, count, forward cross-domain, broadcast.
func (c *Controller) receiveEvent(ev protocol.Event) {
	key := ev.ID.String()
	if c.seenEvents[key] {
		return // previously processed (Fig. 7a)
	}
	c.seenEvents[key] = true
	c.EventsReceived++

	// Inter-domain forwarding: only the deterministic leader forwards, to
	// avoid n duplicate cross-domain messages; remote domains dedup by
	// event id regardless.
	if !ev.Forwarded && c.cfg.DomainOf != nil && c.leaderForForwarding() {
		c.forwardIfCrossDomain(ev)
	}
	c.submitItem(protocol.BroadcastItem{Event: &ev})
}

// leaderForForwarding reports whether this controller performs the
// cross-domain forward (aggregator if assigned, else lowest member).
func (c *Controller) leaderForForwarding() bool {
	if len(c.members) == 0 {
		return true
	}
	return c.members[0] == c.cfg.ID
}

// forwardIfCrossDomain relays the event to one controller of each other
// affected domain, tagged so it is not forwarded again (§4.1).
func (c *Controller) forwardIfCrossDomain(ev protocol.Event) {
	if ev.Kind != protocol.EventFlowRequest && ev.Kind != protocol.EventFlowTeardown {
		return
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.RouteCompute)
	mods, err := c.cfg.App.PlanFlow(ev)
	if err != nil {
		return
	}
	domains := make(map[int]bool)
	for _, mod := range mods {
		domains[c.cfg.DomainOf(mod.Switch)] = true
	}
	fwd := ev
	fwd.Forwarded = true
	payload := fwd.Encode()
	if c.cfg.CryptoReal {
		c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.Ed25519Sign)
	}
	for dom := range domains {
		if dom != c.cfg.Domain {
			c.sendEventToDomain(dom, payload)
		}
	}
}

// sendEventToDomain seals an encoded event to the first known controller of
// another domain.
func (c *Controller) sendEventToDomain(dom int, payload []byte) {
	peers := c.cfg.PeerDomains[dom]
	if len(peers) == 0 {
		return
	}
	if env, ok := c.seal(peers[0], payload); ok {
		c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(peers[0]),
			protocol.MsgEvent{Env: env}, len(payload)+96)
	}
}

// seal wraps payload in an envelope for one peer. It fails only for a peer
// the directory cannot vouch for, which would reject anything sent to it.
func (c *Controller) seal(to pki.Identity, payload []byte) (pki.Envelope, bool) {
	if !c.cfg.CryptoReal {
		return pki.Envelope{From: c.cfg.ID, Payload: payload}, true
	}
	env, err := c.link.Seal(to, payload)
	return env, err == nil
}

// open returns the payload of an envelope addressed to this controller, and
// whether its claimed sender really sealed it.
func (c *Controller) open(env pki.Envelope) ([]byte, bool) {
	if !c.cfg.CryptoReal {
		return env.Payload, true
	}
	payload, err := c.link.Open(env)
	return payload, err == nil
}

// submitItem hands an item to the atomic broadcast (or delivers it
// directly in centralized mode).
func (c *Controller) submitItem(item protocol.BroadcastItem) {
	payload := item.Encode()
	if c.cfg.Protocol == ProtoCentralized {
		c.onDeliver([][]byte{payload})
		return
	}
	if c.replica == nil {
		return
	}
	// While recovering, the replica is mute: hold submissions until state
	// transfer completes, then replay them through the rebuilt replica.
	if c.Recovering() {
		c.recovery.held = append(c.recovery.held, payload)
		return
	}
	c.pendingSubmit[string(payload)] = payload
	c.replica.Submit(payload)
}

// onDeliver consumes one totally-ordered batch of broadcast items (Fig. 7b);
// a payload ordered on its own is a batch of one. The events of a batch are
// marked delivered first and planned together, so that with batch signing
// they share one Merkle tree. A membership change flushes the events
// accumulated so far first, preserving the delivered order's semantics.
func (c *Controller) onDeliver(payloads [][]byte) {
	if c.stopped {
		return
	}
	var evs []protocol.Event
	flush := func() {
		if len(evs) > 0 {
			c.processEvents(evs, c.batchingEnabled())
			evs = nil
		}
	}
	for _, payload := range payloads {
		delete(c.pendingSubmit, string(payload))
		item, err := protocol.DecodeBroadcastItem(payload)
		if err != nil {
			continue
		}
		if item.Membership != nil {
			flush()
			c.onMembershipDelivered(*item.Membership)
			continue
		}
		if item.Event == nil {
			continue
		}
		ev := *item.Event
		// Events arriving during a membership change are queued and re-
		// broadcast in the new phase (§4.3); they are NOT marked delivered.
		if c.change != nil {
			if !c.deliveredEvents[ev.ID.String()] {
				c.change.queued = append(c.change.queued, ev)
			}
			continue
		}
		if c.markDelivered(ev) {
			evs = append(evs, ev)
		}
	}
	flush()
}

// markDelivered records an event as delivered — delivery-level dedup, count,
// ledger append — and reports whether it was new. Live delivery and recovery
// replay both pass through it, so a ledger is built one way.
func (c *Controller) markDelivered(ev protocol.Event) bool {
	key := ev.ID.String()
	if c.deliveredEvents[key] {
		return false
	}
	c.deliveredEvents[key] = true
	c.EventsDelivered++
	c.ledger.Append(audit.KindEvent, key, ev.Encode())
	return true
}

// processEvents plans the events of one delivery and releases the plans into
// the scheduler engine, where each update dispatches as its dependencies
// clear. With signBatch the updates of all the plans are first signed under
// one Merkle root (batch.go); recovery replay never asks for that.
func (c *Controller) processEvents(evs []protocol.Event, signBatch bool) {
	plans := make([]scheduler.Plan, 0, len(evs))
	for _, ev := range evs {
		if plan, ok := c.planEvent(ev); ok {
			plans = append(plans, plan)
		}
	}
	if signBatch {
		c.signUpdateBatch(plans)
	}
	for _, plan := range plans {
		// Event replay is impossible here (deliveredEvents dedups upstream),
		// and the engine tolerates acks that raced ahead of this plan — a
		// switch can apply an update via the other controllers' quorum before
		// this controller delivers the event. A failure therefore indicates a
		// malformed plan from the scheduler; dropping it is the only safe move.
		_ = c.engine.Add(plan)
	}
}

// planEvent computes and schedules this domain's updates for an event,
// returning the plan without releasing it into the engine (a delivery's
// plans may be signed together before any of them runs).
func (c *Controller) planEvent(ev protocol.Event) (scheduler.Plan, bool) {
	// Metadata publications ride policy-change events but never reach
	// the routing app: they fan out into the signed-metadata plane.
	if ev.Kind == protocol.EventPolicyChange && strings.HasPrefix(ev.Info, metaPolicyPrefix) {
		c.onMetaPolicy(ev)
		return nil, false
	}
	switch ev.Kind {
	case protocol.EventMembershipInfo:
		c.applyMembershipInfo(ev)
		return nil, false
	case protocol.EventFlowRequest, protocol.EventFlowTeardown,
		protocol.EventPolicyChange, protocol.EventLinkDown:
	default:
		return nil, false
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.RouteCompute)
	mods, err := c.cfg.App.PlanFlow(ev)
	if err != nil || len(mods) == 0 {
		return nil, false
	}
	// Keep only this domain's switches, preserving path order.
	local := mods[:0:0]
	for _, mod := range mods {
		if c.cfg.DomainOf == nil || c.cfg.DomainOf(mod.Switch) == c.cfg.Domain {
			local = append(local, mod)
		}
	}
	if len(local) == 0 {
		return nil, false
	}
	updates := make([]scheduler.Update, len(local))
	origin := updateOrigin(ev.ID, c.cfg.Domain)
	for i, mod := range local {
		updates[i] = scheduler.Update{
			ID:  openflow.MsgID{Origin: origin, Seq: uint64(i)},
			Mod: mod,
		}
	}
	return c.cfg.Sched.Schedule(updates), true
}

// updateOrigin names the updates a domain plans for an event: "<event
// id>/d<domain>", numbered by Seq in plan order. The name is inside every
// signed update.
func updateOrigin(ev openflow.MsgID, domain int) string {
	var buf [64]byte
	b := append(ev.AppendTo(buf[:0]), "/d"...)
	return string(strconv.AppendInt(b, int64(domain), 10))
}

// dispatchUpdate signs and sends one ready update (the engine's release
// callback).
func (c *Controller) dispatchUpdate(su scheduler.ScheduledUpdate) {
	mods := []openflow.FlowMod{su.Mod}
	canonical := openflow.CanonicalUpdateBytes(su.ID, c.phase, mods)
	c.ledger.Append(audit.KindUpdate, su.ID.String(), canonical)
	c.UpdatesSigned++
	c.dispatchLog = append(c.dispatchLog, dispatchRecord{id: su.ID, phase: c.phase, mods: mods})
	// After a recovery, every dispatch is a potential retransmission of an
	// update the switch decided before the crash; Resend makes the switch
	// re-acknowledge so the rebuilt engine can release dependents.
	if ref, ok := c.batchOf[su.ID.String()]; ok && ref.phase == c.phase {
		c.sendBatchUpdate(su.ID, mods, ref, c.recovered)
		return
	}
	c.sendUpdate(su.ID, c.phase, mods, canonical, c.recovered)
}

// sendUpdate share-signs one update and routes it to its switch (or to
// the aggregator). It is the transmission half of dispatchUpdate for an
// update without a batch signing context, and what the recovery layer
// retransmits logged updates through, with fresh shares. canonical is
// openflow.CanonicalUpdateBytes(id, phase, mods), which the caller has
// already built.
func (c *Controller) sendUpdate(id openflow.MsgID, phase uint64, mods []openflow.FlowMod, canonical []byte, resend bool) {
	msg := protocol.MsgUpdate{
		UpdateID: id,
		Mods:     mods,
		Phase:    phase,
		From:     c.cfg.ID,
		Resend:   resend,
	}
	if c.cfg.Protocol == ProtoCicero {
		// A retired member holds no share (removal installs an empty
		// one); nothing it could send would count toward a quorum.
		if c.cfg.Share.Scalar == nil {
			return
		}
		c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.BLSSignShare)
		msg.ShareIndex = c.cfg.Share.Index
		if c.cfg.CryptoReal {
			share := c.cfg.Scheme.SignShare(c.cfg.Share, canonical)
			msg.Share = c.cfg.Scheme.Params.PointBytes(share.Point)
		}
	}
	size := 256 * len(mods)
	if agg := c.aggregatorID(); agg != "" && c.cfg.Protocol == ProtoCicero {
		if agg == c.cfg.ID {
			c.handleUpdateShare(fabric.NodeID(c.cfg.ID), msg) // self-delivery without network hop
			return
		}
		c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(agg), msg, size)
		return
	}
	if len(mods) == 0 {
		return
	}
	c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(mods[0].Switch), msg, size)
}

// handleUpdateShare collects controllers' shares when this controller is
// the aggregator (Fig. 7c), combining and relaying once a quorum arrives.
// Only a current member's share opens or joins an entry.
func (c *Controller) handleUpdateShare(from fabric.NodeID, m protocol.MsgUpdate) {
	if !c.isAggregator() || c.cfg.Protocol != ProtoCicero || c.memberSlot(pki.Identity(from)) < 0 {
		return
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.MsgProcess)
	canonical := openflow.CanonicalUpdateBytes(m.UpdateID, m.Phase, m.Mods)
	key := sha256.Sum256(canonical)
	col, ok := c.aggPending[key]
	if !ok {
		col = &aggCollect{mods: m.Mods, shares: make(map[uint32][]byte)}
		c.aggPending[key] = col
		c.aggEnqueue(key, false)
	}
	if col.done {
		// A Resend share for a completed update means a recovering peer
		// needs the ack again: rebroadcast the stored aggregate so the
		// switch re-acknowledges.
		if m.Resend && len(col.sent.Mods) > 0 {
			out := col.sent
			out.Resend = true
			c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(out.Mods[0].Switch), out, 256*len(out.Mods))
		}
		return
	}
	if m.ShareIndex == 0 {
		return
	}
	col.shares[m.ShareIndex] = m.Share
	quorum := c.Quorum()
	if len(col.shares) < quorum {
		return
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID),
		time.Duration(quorum)*c.cfg.Cost.BLSAggregatePerShare+c.cfg.Cost.AggregatorQueue)
	var sig []byte
	if c.cfg.CryptoReal {
		combined, err := c.cfg.Scheme.CombineVerified(c.cfg.GroupKey, canonical, c.cfg.Scheme.ParseShares(col.shares))
		if err != nil {
			return // wait for more (honest) shares
		}
		sig = c.cfg.Scheme.Params.PointBytes(combined.Point)
	}
	col.done = true
	c.aggEnqueue(key, true)
	if len(col.mods) == 0 {
		return
	}
	col.sent = protocol.MsgAggUpdate{UpdateID: m.UpdateID, Mods: col.mods, Phase: m.Phase, Signature: sig, Resend: m.Resend}
	c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(col.mods[0].Switch), col.sent, 256*len(col.mods))
}

// aggEnqueue records that key's entry joined a class (done or open) and,
// if that puts the class over its budget, retires the class's oldest
// entry. A key queued as open whose entry has since been done is skipped.
func (c *Controller) aggEnqueue(key [sha256.Size]byte, done bool) {
	q := &c.aggOrder[0]
	if done {
		q = &c.aggOrder[1]
	}
	if *q = append(*q, key); len(*q) > maxAggPending {
		oldest := (*q)[0]
		*q = (*q)[1:]
		if col := c.aggPending[oldest]; col != nil && col.done == done {
			delete(c.aggPending, oldest)
		}
	}
}

// handleAckMsg verifies a switch acknowledgement and releases dependents
// (Fig. 7b's loop). An ack speaks for the identity that sealed it and for
// nobody else, and the engine counts it only for an update addressed to that
// identity — any other registered one, a Byzantine controller included,
// releases nothing with it.
func (c *Controller) handleAckMsg(m protocol.MsgAck) {
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.Ed25519Verify+c.cfg.Cost.MsgProcess)
	payload, ok := c.open(m.Env)
	if !ok {
		return
	}
	ack, err := protocol.DecodeAck(payload)
	if err != nil || !ack.Applied {
		return
	}
	c.AcksReceived++
	if c.engine.Ack(ack.UpdateID, string(m.Env.From)) {
		// The batch signing context exists only for the initial dispatch;
		// every retransmission path resends through legacy per-update
		// shares, so an acked update's ref is dead weight on a long-running
		// controller.
		delete(c.batchOf, ack.UpdateID.String())
	}
}

// applyMembershipInfo updates the peer-domain controller view (§4.3 final
// step): the Info payload carries "domain|member1|member2|...".
func (c *Controller) applyMembershipInfo(ev protocol.Event) {
	var dom int
	var rest string
	if _, err := fmt.Sscanf(ev.Info, "%d|%s", &dom, &rest); err != nil {
		return
	}
	var members []pki.Identity
	for _, part := range splitNonEmpty(rest, '|') {
		members = append(members, pki.Identity(part))
	}
	if c.cfg.PeerDomains == nil {
		c.cfg.PeerDomains = make(map[int][]pki.Identity)
	}
	c.cfg.PeerDomains[dom] = members
}

// splitNonEmpty splits s on sep, dropping empty parts.
func splitNonEmpty(s string, sep byte) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == sep {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// PushConfig initiates a threshold-signed configuration push to this
// domain's switches for the current phase. Every member contributes a
// share; the lowest member combines and sends (bootstrap and after every
// membership change).
func (c *Controller) PushConfig() {
	if c.cfg.Protocol != ProtoCicero {
		// Baselines: the (single or unauthenticated) control plane just
		// tells switches its membership.
		if c.leaderForForwarding() {
			cfgMsg := protocol.MsgConfig{Phase: c.phase, Quorum: 1, Members: c.members}
			for _, sw := range c.cfg.Switches {
				c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(sw), cfgMsg, 256)
			}
		}
		return
	}
	canonical := protocol.ConfigBytes(c.phase, c.Quorum(), c.members, c.aggregatorID())
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.BLSSignShare)
	share := protocol.MsgConfigShare{
		Phase:      c.phase,
		Quorum:     c.Quorum(),
		Members:    c.members,
		Aggregator: c.aggregatorID(),
		ShareIndex: c.cfg.Share.Index,
	}
	if c.cfg.CryptoReal {
		sigShare := c.cfg.Scheme.SignShare(c.cfg.Share, canonical)
		share.Share = c.cfg.Scheme.Params.PointBytes(sigShare.Point)
	}
	leader := c.members[0]
	if leader == c.cfg.ID {
		c.handleConfigShare(share)
		return
	}
	c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(leader), share, 512)
}

// handleConfigShare collects config shares at the leader and pushes the
// combined configuration to switches once a quorum signs it. Shares for
// the next phase are held (peers may finish a reshare slightly earlier),
// one per share index of the membership that phase can have; later phases
// are not.
func (c *Controller) handleConfigShare(m protocol.MsgConfigShare) {
	if m.Phase > c.phase {
		if m.Phase == c.phase+1 && m.ShareIndex >= 1 && int(m.ShareIndex) <= len(c.members)+1 {
			c.earlyConfig = holdOne(c.earlyConfig, m, func(s protocol.MsgConfigShare) uint32 { return s.ShareIndex })
		}
		return
	}
	if len(c.members) == 0 || c.members[0] != c.cfg.ID || m.Phase != c.phase {
		return
	}
	if c.configDone || m.ShareIndex == 0 {
		return
	}
	c.configShares[m.ShareIndex] = m.Share
	quorum := c.Quorum()
	if len(c.configShares) < quorum {
		return
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID),
		time.Duration(quorum)*c.cfg.Cost.BLSAggregatePerShare)
	var sig []byte
	if c.cfg.CryptoReal {
		canonical := protocol.ConfigBytes(c.phase, quorum, c.members, c.aggregatorID())
		combined, err := c.cfg.Scheme.CombineVerified(c.cfg.GroupKey, canonical, c.cfg.Scheme.ParseShares(c.configShares))
		if err != nil {
			return
		}
		sig = c.cfg.Scheme.Params.PointBytes(combined.Point)
	}
	c.configDone = true
	out := protocol.MsgConfig{
		Phase:      c.phase,
		Quorum:     quorum,
		Members:    c.members,
		Aggregator: c.aggregatorID(),
		GroupKey:   c.cfg.GroupKey,
		Signature:  sig,
	}
	for _, sw := range c.cfg.Switches {
		c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(sw), out, 512)
	}
}

// PeerView returns this controller's view of another domain's control
// plane (for event forwarding); membership notices update it.
func (c *Controller) PeerView(domain int) []pki.Identity {
	return append([]pki.Identity(nil), c.cfg.PeerDomains[domain]...)
}

// AuditRecords returns the controller's decision ledger for auditing
// (the §7 future-work mechanism; see internal/audit).
func (c *Controller) AuditRecords() []audit.Record {
	return c.ledger.Records()
}

// BroadcastCoords reports the atomic-broadcast replica's current view and
// delivery watermark (zeros for the centralized baseline). Operational
// introspection for drain loops and debugging.
func (c *Controller) BroadcastCoords() (view, lastDelivered uint64) {
	if c.replica == nil {
		return 0, 0
	}
	return c.replica.View(), c.replica.LastDelivered()
}

// InjectEvent lets the simulation driver present an administrator event
// (policy change, link failure) directly to this controller, as if
// received from a verified source.
func (c *Controller) InjectEvent(ev protocol.Event) { c.receiveEvent(ev) }
