// Package dataplane implements the Cicero switch runtime (Fig. 6 of the
// paper), the paper's Open vSwitch extension: flow-table forwarding,
// event generation for table misses, quorum collection and threshold-
// signature aggregation/verification of control-plane updates, and signed
// acknowledgements. The runtime is deliberately minimal — the paper's
// design goal is to keep switch instrumentation small.
package dataplane

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"cicero/internal/fabric"
	"cicero/internal/metarepo"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/pki"
)

// Mode selects how the switch authenticates updates.
type Mode int

// Modes. Start at 1 so the zero value is invalid.
const (
	// ModeUnsigned applies the first copy of each update (the centralized
	// and crash-tolerant baselines: no quorum authentication, §6.1).
	ModeUnsigned Mode = iota + 1
	// ModeThreshold collects a quorum of signature shares, aggregates,
	// and verifies against the control plane's threshold public key.
	ModeThreshold
	// ModeAggregated expects pre-aggregated signatures from a designated
	// aggregator controller and only verifies them (§4.2).
	ModeAggregated
)

// Config assembles a switch.
type Config struct {
	ID string
	// Net is the transport seam; the same switch runs on the simulator or
	// the live backends.
	Net  fabric.Fabric
	Cost protocol.CostModel
	Mode Mode

	// Keys and Directory are the switch's identity and its peers': events
	// and acks are sealed to each controller over the pki.Link built from
	// them.
	Keys      *pki.KeyPair
	Directory *pki.Directory

	// Scheme/GroupKey/Quorum configure threshold verification
	// (ModeThreshold and ModeAggregated). The group key's Feldman
	// commitments are public information published by the DKG; holding
	// them lets the switch identify bad shares when an optimistic
	// aggregate fails.
	Scheme   *bls.Scheme
	GroupKey *bls.GroupKey
	Quorum   int

	// Controllers is the domain's control plane membership (identities are
	// also simnet node ids).
	Controllers []pki.Identity

	// CryptoReal executes real BLS/Ed25519 operations. When false only
	// the cost model's time is charged; quorum counting and dedup still
	// run, so protocol structure is identical.
	CryptoReal bool

	// ApplyHook, when set, observes every update apply decision (the chaos
	// engine's invariant checkers attach here). It runs synchronously on
	// the simulator loop after the flow table has been updated.
	ApplyHook func(sw string, id openflow.MsgID, phase uint64, mods []openflow.FlowMod, valid bool)

	// BatchApplyHook, when set, additionally observes batch-amortized
	// update decisions with the full MsgBatchUpdate (root, inclusion
	// proof), letting chaos invariants re-check the Merkle proof
	// independently. ApplyHook still fires for the same decision.
	BatchApplyHook func(sw string, m protocol.MsgBatchUpdate, valid bool)

	// Metadata, when non-nil, enables the trusted-metadata store
	// (requires Scheme and GroupKey; see metadata.go).
	Metadata *MetadataConfig

	// BootEpoch namespaces this instance's event sequence numbers (the
	// high 32 bits). Controllers dedup events by id, so a switch that
	// restarts with a reset counter would collide with its pre-crash ids
	// and its fresh events would be silently dropped — or worse, deliver
	// different content under an already-delivered id. A real switch
	// derives the epoch from a boot counter in stable storage; here the
	// deployment layer's restart path increments it.
	BootEpoch uint32
}

// matchKey dedups pending events per flow endpoints.
type matchKey struct{ src, dst string }

// waiter observes rule installation (the simulation driver uses it to
// start flows whose rules were missing).
type waiter struct {
	src, dst string
	fn       func(at fabric.Time)
}

// Switch is one data-plane switch.
type Switch struct {
	cfg   Config
	link  *pki.Link
	table *openflow.FlowTable

	eventSeq uint64
	// pendingEvents dedups outstanding table-miss events per match.
	pendingEvents map[matchKey]openflow.MsgID
	// pools collects the share quorums of updates and batch roots, keyed
	// by the digest of the bytes the shares sign (see pool.go). Bounded by
	// maxPendingBatches per class (verified, unverified); poolSeq orders
	// the entries of a class for eviction.
	pools   map[[sha256.Size]byte]*pool
	poolSeq uint64
	// applied records the verdict of every decided update (true: applied,
	// false: rejected) so recovery retransmissions can be re-acknowledged
	// with the original outcome.
	applied     map[string]bool
	aggregator  pki.Identity
	configPhase uint64
	waiters     []waiter

	// verifyBypass disables update signature verification. It exists ONLY
	// as the chaos engine's canary mutation: a deliberately broken switch
	// that the no-forged-rule invariant must catch.
	verifyBypass bool

	// meta is the trusted-metadata store (nil when disabled); see
	// metadata.go.
	meta *metarepo.Store

	// MetaConfigRejects counts config pushes rejected because the signed
	// policy metadata contradicted them.
	MetaConfigRejects uint64

	// Counters for experiments.
	EventsGenerated uint64
	UpdatesApplied  uint64
	UpdatesRejected uint64
}

var _ fabric.Handler = (*Switch)(nil)

// New creates a switch and registers it on the network.
func New(cfg Config) (*Switch, error) {
	if cfg.ID == "" || cfg.Net == nil || cfg.Keys == nil || cfg.Directory == nil {
		return nil, fmt.Errorf("dataplane: incomplete config for switch %q", cfg.ID)
	}
	if cfg.Mode == ModeThreshold || cfg.Mode == ModeAggregated {
		if cfg.Scheme == nil || cfg.GroupKey == nil || cfg.Quorum < 1 {
			return nil, fmt.Errorf("dataplane: switch %q: threshold mode requires scheme, group key and quorum", cfg.ID)
		}
	}
	s := &Switch{
		cfg:           cfg,
		link:          pki.NewLink(cfg.Keys, cfg.Directory),
		table:         openflow.NewFlowTable(),
		eventSeq:      uint64(cfg.BootEpoch) << 32,
		pendingEvents: make(map[matchKey]openflow.MsgID),
		pools:         make(map[[sha256.Size]byte]*pool),
		applied:       make(map[string]bool),
	}
	if err := s.initMetadata(); err != nil {
		return nil, err
	}
	cfg.Net.Register(fabric.NodeID(cfg.ID), s)
	return s, nil
}

// ID returns the switch's node id.
func (s *Switch) ID() string { return s.cfg.ID }

// Table exposes the flow table (read-mostly; the driver inspects it).
func (s *Switch) Table() *openflow.FlowTable { return s.table }

// SetVerifyBypass toggles the canary mutation: with bypass on, the switch
// applies threshold and aggregated updates without checking signatures —
// the exact vulnerability Cicero exists to prevent. Chaos campaigns enable
// it to prove the no-forged-rule invariant has teeth.
func (s *Switch) SetVerifyBypass(on bool) { s.verifyBypass = on }

// Lookup consults the flow table.
func (s *Switch) Lookup(src, dst string) (openflow.Rule, bool) {
	return s.table.Lookup(src, dst)
}

// Subscribe registers fn to run when a FlowAdd rule covering (src, dst)
// is applied. If such a rule already exists, fn runs immediately.
func (s *Switch) Subscribe(src, dst string, fn func(at fabric.Time)) {
	if _, ok := s.table.Lookup(src, dst); ok {
		fn(s.cfg.Net.Now())
		return
	}
	s.waiters = append(s.waiters, waiter{src: src, dst: dst, fn: fn})
}

// PacketArrival models a data-plane packet reaching this switch (Fig. 6a):
// on a table hit it returns the matched rule; on a miss it generates and
// emits a signed table-miss event (deduplicated per flow endpoints) and
// returns ok=false.
func (s *Switch) PacketArrival(src, dst string) (openflow.Rule, bool) {
	if rule, ok := s.table.Lookup(src, dst); ok {
		if rule.Action.Type == openflow.ActionOutput {
			return rule, true
		}
		return rule, true // drop rules are also "handled"
	}
	key := matchKey{src, dst}
	if _, outstanding := s.pendingEvents[key]; outstanding {
		return openflow.Rule{}, false
	}
	s.eventSeq++
	ev := protocol.Event{
		ID:   openflow.MsgID{Origin: s.cfg.ID, Seq: s.eventSeq},
		Kind: protocol.EventFlowRequest,
		Src:  src,
		Dst:  dst,
	}
	s.pendingEvents[key] = ev.ID
	s.EmitEvent(ev)
	return openflow.Rule{}, false
}

// EmitEvent seals and sends an event to the control plane: to the
// aggregator when one is assigned, otherwise to every controller.
func (s *Switch) EmitEvent(ev protocol.Event) {
	s.EventsGenerated++
	s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID), s.cfg.Cost.Ed25519Sign)
	payload := ev.Encode()
	size := len(payload) + 96
	recipients := s.cfg.Controllers
	if s.aggregator != "" {
		recipients = []pki.Identity{s.aggregator}
	}
	for _, ctl := range recipients {
		if env, ok := s.seal(ctl, payload); ok {
			s.cfg.Net.Send(fabric.NodeID(s.cfg.ID), fabric.NodeID(ctl), protocol.MsgEvent{Env: env}, size)
		}
	}
}

// seal wraps payload in an envelope for one controller. It fails only for a
// controller the directory cannot vouch for, which would reject anything
// this switch sent it.
func (s *Switch) seal(to pki.Identity, payload []byte) (pki.Envelope, bool) {
	if !s.cfg.CryptoReal {
		return pki.Envelope{From: s.cfg.Keys.ID, Payload: payload}, true
	}
	env, err := s.link.Seal(to, payload)
	return env, err == nil
}

// HandleMessage implements fabric.Handler (Fig. 6b). Who sent a message
// decides nothing here: outside the unsigned baselines, what changes switch
// state carries its own shares, signature or attestation.
func (s *Switch) HandleMessage(_ fabric.NodeID, msg fabric.Message) {
	switch m := msg.(type) {
	case protocol.MsgUpdate:
		s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID), s.cfg.Cost.MsgProcess)
		s.handleUpdate(m)
	case protocol.MsgAggUpdate:
		s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID), s.cfg.Cost.MsgProcess)
		s.handleAggUpdate(m)
	case protocol.MsgBatchUpdate:
		s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID), s.cfg.Cost.MsgProcess)
		s.handleBatchUpdate(m)
	case protocol.MsgConfig:
		s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID), s.cfg.Cost.MsgProcess)
		s.handleConfig(m)
	case protocol.MsgMeta:
		s.handleMeta(m)
	case protocol.MsgMetaSet:
		s.handleMetaSet(m)
	case openflow.PacketOut:
		// A bare PACKET_OUT reaching the data plane is exactly the attack
		// of §2.2; Cicero switches only honor threshold-authenticated
		// messages, so it is dropped (and counted).
		s.UpdatesRejected++
	}
}

// handleConfig installs a control-plane configuration (membership,
// quorum, aggregator) after verifying its threshold signature against the
// group public key, which membership changes never alter.
func (s *Switch) handleConfig(m protocol.MsgConfig) {
	if s.configPhase != 0 && m.Phase <= s.configPhase {
		return // stale
	}
	if s.cfg.Mode != ModeUnsigned {
		s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID), s.cfg.Cost.BLSVerifyAggregate)
		if s.cfg.CryptoReal && s.cfg.Scheme != nil {
			canonical := protocol.ConfigBytes(m.Phase, m.Quorum, m.Members, m.Aggregator)
			pt, err := s.cfg.Scheme.Params.ParsePoint(m.Signature)
			if err != nil || !s.cfg.Scheme.Verify(s.cfg.GroupKey.PK, canonical, bls.Signature{Point: pt}) {
				s.UpdatesRejected++
				return
			}
		}
	}
	if !s.metaAllowsConfig(m) {
		s.MetaConfigRejects++
		s.UpdatesRejected++
		return
	}
	s.configPhase = m.Phase
	s.cfg.Controllers = append([]pki.Identity(nil), m.Members...)
	// Batch quorum pools from earlier phases can never complete now —
	// controllers re-sign fresh roots in the new phase and retransmit
	// cross-phase updates share by share.
	s.dropStaleBatches(m.Phase)
	if m.Quorum > 0 {
		s.cfg.Quorum = m.Quorum
	}
	if gk, ok := m.GroupKey.(*bls.GroupKey); ok && gk != nil && s.cfg.GroupKey != nil {
		// Only accept key material that preserves the provisioned public
		// key (the membership protocol's core invariant).
		if gk.PK.Point.Equal(s.cfg.GroupKey.PK.Point) {
			s.cfg.GroupKey = gk
		}
	}
	s.aggregator = m.Aggregator
	if s.cfg.Mode != ModeUnsigned {
		if m.Aggregator != "" {
			s.cfg.Mode = ModeAggregated
		} else {
			s.cfg.Mode = ModeThreshold
		}
	}
	// The control plane that should serve outstanding table-miss events
	// may have changed (e.g., a crashed aggregator was replaced), so nudge
	// them again.
	s.ResendPendingEvents()
}

// ResendPendingEvents re-emits every outstanding table-miss event under a
// fresh id. Controllers deduplicate by event id, so a fresh id is the only
// way to push a request whose first emission died with a crashed
// controller or a dropped message. The chaos drain phase calls this to
// re-drive stalled flows; handleConfig calls it after membership changes.
func (s *Switch) ResendPendingEvents() {
	pending := s.pendingEvents
	s.pendingEvents = make(map[matchKey]openflow.MsgID, len(pending))
	keys := make([]matchKey, 0, len(pending))
	for key := range pending {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].dst < keys[j].dst
	})
	for _, key := range keys {
		s.eventSeq++
		ev := protocol.Event{
			ID:   openflow.MsgID{Origin: s.cfg.ID, Seq: s.eventSeq},
			Kind: protocol.EventFlowRequest,
			Src:  key.src,
			Dst:  key.dst,
		}
		s.pendingEvents[key] = ev.ID
		s.EmitEvent(ev)
	}
}

// RequestResync asks every known controller to retransmit the updates
// previously dispatched to this switch. A restarted switch calls it once
// after Bootstrap: its flow table rebuilds through the normal quorum-
// authenticated update path, so resynchronization is exactly as hard to
// forge as a regular update.
func (s *Switch) RequestResync() {
	msg := protocol.MsgResyncRequest{}
	for _, ctl := range s.cfg.Controllers {
		s.cfg.Net.Send(fabric.NodeID(s.cfg.ID), fabric.NodeID(ctl), msg, 64)
	}
}

// Aggregator returns the currently assigned aggregator ("" when events are
// multicast to the whole control plane).
func (s *Switch) Aggregator() pki.Identity { return s.aggregator }

// Bootstrap installs the initial control-plane configuration out-of-band,
// modelling initial provisioning (which also installs the threshold public
// key). Later configuration changes arrive as threshold-signed MsgConfig.
func (s *Switch) Bootstrap(members []pki.Identity, aggregator pki.Identity, quorum int) {
	s.cfg.Controllers = append([]pki.Identity(nil), members...)
	s.aggregator = aggregator
	if quorum > 0 {
		s.cfg.Quorum = quorum
	}
}

// apply installs (or rejects) an update, acknowledges it, and wakes any
// flow waiters whose rules just arrived.
func (s *Switch) apply(id openflow.MsgID, phase uint64, mods []openflow.FlowMod, valid bool) {
	key := updateKey(id, phase)
	s.applied[key] = valid
	if !valid {
		s.UpdatesRejected++
		if s.cfg.ApplyHook != nil {
			s.cfg.ApplyHook(s.cfg.ID, id, phase, mods, false)
		}
		s.sendAck(id, false)
		return
	}
	s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID), s.cfg.Cost.SwitchApply)
	s.UpdatesApplied++
	for _, mod := range mods {
		s.table.Apply(mod)
		if mod.Op == openflow.FlowAdd {
			s.wakeWaiters(mod.Rule)
		}
	}
	if s.cfg.ApplyHook != nil {
		s.cfg.ApplyHook(s.cfg.ID, id, phase, mods, true)
	}
	s.sendAck(id, true)
}

// wakeWaiters fires subscriptions covered by a newly installed rule and
// clears the corresponding pending-event dedup entries.
func (s *Switch) wakeWaiters(rule openflow.Rule) {
	now := s.cfg.Net.Now()
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if rule.Match.Covers(w.src, w.dst) && rule.Action.Type == openflow.ActionOutput {
			w.fn(now)
			continue
		}
		kept = append(kept, w)
	}
	s.waiters = kept
	for key := range s.pendingEvents {
		if rule.Match.Covers(key.src, key.dst) {
			delete(s.pendingEvents, key)
		}
	}
}

// sendAck seals and sends an acknowledgement to every controller.
func (s *Switch) sendAck(id openflow.MsgID, applied bool) {
	ack := protocol.Ack{UpdateID: id, Applied: applied}
	s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID), s.cfg.Cost.Ed25519Sign)
	payload := ack.Encode()
	for _, ctl := range s.cfg.Controllers {
		if env, ok := s.seal(ctl, payload); ok {
			s.cfg.Net.Send(fabric.NodeID(s.cfg.ID), fabric.NodeID(ctl), protocol.MsgAck{Env: env}, len(payload)+96)
		}
	}
}
