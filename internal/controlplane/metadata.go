// Metadata plane: controllers publish TUF-style signed policy metadata
// (internal/metarepo) through the same machinery that orders and signs
// network updates.
//
// Publication rides the atomic broadcast: PublishPolicy submits a
// policy-change event whose Info payload carries the policy bundle plus
// its issue time, so every controller delivers it at the same position
// in the total order and derives byte-identical targets and snapshot
// documents (canonical JSON). Each controller signs both with its
// Ed25519 role key and sends the signatures to the metadata leader
// (lowest member — the same deterministic leader that pushes configs).
// The leader assembles the envelopes with metarepo's collectors, mints
// the short-lived timestamp itself (the timestamp role has threshold 1:
// it is the high-frequency online role), adopts the set into its own
// trusted store, and multicasts it to peers and switches. Every
// receiver re-verifies through its own store — the leader cannot
// splice, roll back, or freeze anything, because a quorum of role
// signatures backs each document and the store enforces the bindings.
//
// Root rotation uses BLS shares instead of role signatures: the leader
// proposes the next root document (an unsigned MsgMeta), members
// validate it against their directory and answer with signature shares
// over the exact proposed bytes, and the ShareCollector verifies each
// share against the current Feldman commitments — which is what makes
// shares from a retired (pre-reshare) sharing worthless even though the
// group public key never changes. Membership changes trigger a rotation
// automatically so the delegated key set tracks the live control plane.
package controlplane

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/metarepo"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/pki"
)

// metaPolicyPrefix tags broadcast events that carry a metadata policy
// publication: "metapolicy|<issued_ns>|<policy json>".
const metaPolicyPrefix = "metapolicy|"

// MetadataConfig enables the signed-metadata plane on a controller.
type MetadataConfig struct {
	// Genesis is the threshold-signed version-1 root (the root of trust;
	// required).
	Genesis protocol.MetaEnvelope
	// TTL bounds root/targets/snapshot validity (default 1h).
	TTL time.Duration
	// TimestampTTL bounds the freshness proof (default 2s) — the window
	// a freeze attack can go unnoticed.
	TimestampTTL time.Duration
	// RefreshInterval is the leader's timestamp refresh cadence
	// (default TimestampTTL/2).
	RefreshInterval time.Duration
	// RefreshHorizon bounds the refresh loop: > 0 stops refreshing past
	// that fabric time (so simulations quiesce), < 0 refreshes forever
	// (live deployments), 0 disables the periodic loop entirely.
	RefreshHorizon time.Duration
}

func (mc *MetadataConfig) ttlNS() int64 {
	if mc.TTL > 0 {
		return int64(mc.TTL)
	}
	return int64(time.Hour)
}

func (mc *MetadataConfig) tsTTLNS() int64 {
	if mc.TimestampTTL > 0 {
		return int64(mc.TimestampTTL)
	}
	return int64(2 * time.Second)
}

func (mc *MetadataConfig) refreshEvery() time.Duration {
	if mc.RefreshInterval > 0 {
		return mc.RefreshInterval
	}
	return time.Duration(mc.tsTTLNS() / 2)
}

// metaState is the controller's metadata-plane state.
type metaState struct {
	store *metarepo.Store
	// version is the last derived targets/snapshot version. It advances
	// with each delivered policy publication, so every controller that
	// follows the total order assigns identical versions.
	version uint64
	// pubSeq numbers this controller's own publications (event ids).
	pubSeq uint64
	// Leader-side assembly state.
	shareCol *metarepo.ShareCollector
	sigCols  map[string]*metarepo.SigCollector
	sets     map[uint64]map[string]protocol.MetaEnvelope
}

// initMetadata builds the trusted store and seeds it from the genesis
// root (called from New; metadata requires the full protocol's key
// material).
func (c *Controller) initMetadata() error {
	mc := c.cfg.Metadata
	if mc == nil || c.cfg.Protocol != ProtoCicero {
		return nil
	}
	store := metarepo.NewStore(c.cfg.Scheme, c.cfg.GroupKey.PK,
		func() int64 { return int64(c.cfg.Net.Now()) })
	if err := store.Apply(mc.Genesis); err != nil {
		return fmt.Errorf("controlplane: %q: metadata genesis: %w", c.cfg.ID, err)
	}
	c.meta = &metaState{
		store:   store,
		sigCols: make(map[string]*metarepo.SigCollector),
		sets:    make(map[uint64]map[string]protocol.MetaEnvelope),
	}
	if mc.RefreshHorizon != 0 {
		c.scheduleMetaRefresh()
	}
	return nil
}

// MetaStore exposes the controller's trusted-metadata store (nil when
// the metadata plane is disabled).
func (c *Controller) MetaStore() *metarepo.Store {
	if c.meta == nil {
		return nil
	}
	return c.meta.store
}

// metaLeader is the deterministic metadata leader: the lowest member,
// the same leader that combines config pushes.
func (c *Controller) metaLeader() pki.Identity {
	if len(c.members) == 0 {
		return c.cfg.ID
	}
	return c.members[0]
}

// PublishPolicy submits a policy bundle to the atomic broadcast. On
// delivery every controller derives and role-signs the same metadata
// set; the leader assembles and distributes it.
func (c *Controller) PublishPolicy(p metarepo.Policy) {
	if c.meta == nil || c.stopped {
		return
	}
	c.meta.pubSeq++
	info := metaPolicyPrefix + strconv.FormatInt(int64(c.cfg.Net.Now()), 10) +
		"|" + string(metarepo.Encode(p))
	ev := protocol.Event{
		ID:   openflow.MsgID{Origin: string(c.cfg.ID) + "/meta", Seq: c.meta.pubSeq},
		Kind: protocol.EventPolicyChange,
		Info: info,
	}
	c.receiveEvent(ev)
}

// onMetaPolicy consumes a delivered policy publication: derive the
// deterministic targets/snapshot pair and send role signatures to the
// leader.
func (c *Controller) onMetaPolicy(ev protocol.Event) {
	if c.meta == nil {
		return
	}
	rest := strings.TrimPrefix(ev.Info, metaPolicyPrefix)
	bar := strings.IndexByte(rest, '|')
	if bar < 0 {
		return
	}
	issuedNS, err := strconv.ParseInt(rest[:bar], 10, 64)
	if err != nil {
		return
	}
	var policy metarepo.Policy
	if json.Unmarshal([]byte(rest[bar+1:]), &policy) != nil {
		return
	}
	c.meta.version++
	mc := c.cfg.Metadata
	tg, sn, _ := metarepo.BuildSet(policy, c.meta.version, issuedNS, mc.ttlNS(), mc.tsTTLNS())
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), 2*c.cfg.Cost.Ed25519Sign)
	c.sendMetaSig(protocol.MetaRoleTargets, tg.Version, metarepo.Encode(tg))
	c.sendMetaSig(protocol.MetaRoleSnapshot, sn.Version, metarepo.Encode(sn))
}

// sendMetaSig role-signs one derived document and routes the signature
// to the metadata leader.
func (c *Controller) sendMetaSig(role string, version uint64, signed []byte) {
	sig := metarepo.SignRole(c.cfg.Keys, role, signed)
	m := protocol.MsgMetaSig{
		Role: role, Version: version, Digest: metarepo.Digest(signed),
		Signed: signed, KeyID: sig.KeyID, Sig: sig.Sig,
	}
	if leader := c.metaLeader(); leader != c.cfg.ID {
		c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(leader), m, len(signed)+160)
		return
	}
	c.handleMetaSig(m)
}

// handleMetaSig collects role signatures at the leader; when both the
// targets and snapshot envelopes for a version complete, the leader
// finishes the set.
func (c *Controller) handleMetaSig(m protocol.MsgMetaSig) {
	if c.meta == nil || c.metaLeader() != c.cfg.ID {
		return
	}
	// Signatures for a version the store already holds are stragglers
	// from an assembled (or superseded) set; recreating a collector for
	// them would re-finish the set.
	if tg := c.meta.store.PolicyTargets(); tg != nil && m.Version <= tg.Version {
		return
	}
	root := c.meta.store.Root()
	if root == nil {
		return
	}
	d, ok := root.Roles[m.Role]
	if !ok {
		return
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.Ed25519Verify+c.cfg.Cost.MsgProcess)
	key := fmt.Sprintf("%s|%d", m.Role, m.Version)
	col, ok := c.meta.sigCols[key]
	if !ok {
		col = metarepo.NewSigCollector(m.Role, m.Version, m.Signed, d)
		c.meta.sigCols[key] = col
	}
	env, done, err := col.Add(m)
	if err != nil {
		c.MetaSigRejects++
		return
	}
	if !done {
		return
	}
	set, ok := c.meta.sets[m.Version]
	if !ok {
		set = make(map[string]protocol.MetaEnvelope)
		c.meta.sets[m.Version] = set
	}
	set[m.Role] = env
	tgEnv, okT := set[protocol.MetaRoleTargets]
	snEnv, okS := set[protocol.MetaRoleSnapshot]
	if okT && okS {
		c.finishMetaSet(m.Version, tgEnv, snEnv)
	}
}

// finishMetaSet mints the freshness proof over a completed
// targets/snapshot pair, adopts the triple locally, and multicasts it.
// A set superseded while its signatures were in flight fails local
// adoption (rollback) and is dropped — peers already hold something
// newer.
func (c *Controller) finishMetaSet(version uint64, tgEnv, snEnv protocol.MetaEnvelope) {
	delete(c.meta.sets, version)
	delete(c.meta.sigCols, fmt.Sprintf("%s|%d", protocol.MetaRoleTargets, version))
	delete(c.meta.sigCols, fmt.Sprintf("%s|%d", protocol.MetaRoleSnapshot, version))
	var snDoc metarepo.Snapshot
	if json.Unmarshal(snEnv.Signed, &snDoc) != nil {
		return
	}
	tsEnv, ok := c.mintTimestamp(snDoc.Version, metarepo.Digest(snEnv.Signed))
	if !ok {
		return
	}
	envs := []protocol.MetaEnvelope{tsEnv, snEnv, tgEnv}
	if err := c.meta.store.ApplySet(envs); err != nil {
		return
	}
	c.MetaPublished++
	c.multicastMeta(protocol.MsgMetaSet{Envs: envs})
}

// mintTimestamp builds and signs the next freshness proof binding the
// given snapshot (leader only; the timestamp role has threshold 1).
func (c *Controller) mintTimestamp(snVersion uint64, snDigest []byte) (protocol.MetaEnvelope, bool) {
	nowNS := int64(c.cfg.Net.Now())
	ver := uint64(1)
	if cur := c.meta.store.TimestampDoc(); cur != nil {
		ver = cur.Version + 1
	}
	ts := metarepo.Timestamp{
		Version: ver, IssuedNS: nowNS, ExpiresNS: nowNS + c.cfg.Metadata.tsTTLNS(),
		SnapshotVersion: snVersion, SnapshotDigest: snDigest,
	}
	signed := metarepo.Encode(ts)
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.Ed25519Sign)
	env := protocol.MetaEnvelope{
		Role:   protocol.MetaRoleTimestamp,
		Signed: signed,
		Sigs:   []protocol.MetaSig{metarepo.SignRole(c.cfg.Keys, protocol.MetaRoleTimestamp, signed)},
	}
	return env, true
}

// multicastMeta distributes metadata to the other members and this
// domain's switches.
func (c *Controller) multicastMeta(msg fabric.Message) {
	size := 512
	switch m := msg.(type) {
	case protocol.MsgMetaSet:
		size = 0
		for _, env := range m.Envs {
			size += len(env.Signed) + 128*len(env.Sigs)
		}
	case protocol.MsgMeta:
		size = len(m.Env.Signed) + 128*len(m.Env.Sigs)
	}
	for _, m := range c.members {
		if m == c.cfg.ID {
			continue
		}
		c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(m), msg, size)
	}
	for _, sw := range c.cfg.Switches {
		c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(sw), msg, size)
	}
}

// scheduleMetaRefresh arms the leader's periodic timestamp refresh.
// Every member runs the timer (leadership can move with membership),
// but only the current leader mints.
func (c *Controller) scheduleMetaRefresh() {
	mc := c.cfg.Metadata
	c.cfg.Net.After(fabric.NodeID(c.cfg.ID), mc.refreshEvery(), func() {
		if c.stopped || c.meta == nil {
			return
		}
		if mc.RefreshHorizon > 0 && c.cfg.Net.Now() > mc.RefreshHorizon {
			return
		}
		if c.metaLeader() == c.cfg.ID {
			c.RefreshMetaTimestamp()
		}
		c.scheduleMetaRefresh()
	})
}

// RefreshMetaTimestamp mints and distributes the next freshness proof
// over the current snapshot (leader path; exported so drivers and tests
// can force a refresh).
func (c *Controller) RefreshMetaTimestamp() {
	if c.meta == nil || c.stopped || c.metaLeader() != c.cfg.ID {
		return
	}
	cur := c.meta.store.TimestampDoc()
	if cur == nil {
		return
	}
	env, ok := c.mintTimestamp(cur.SnapshotVersion, cur.SnapshotDigest)
	if !ok {
		return
	}
	if err := c.meta.store.Apply(env); err != nil {
		return
	}
	c.MetaRefreshes++
	c.multicastMeta(protocol.MsgMeta{Env: env})
}

// RotateRoot proposes the next root document, delegating to the current
// members minus any excluded identities. Leader only; members answer
// with BLS shares over the proposed bytes and the leader distributes
// the threshold-signed result. Excluded identities' role keys are
// retired by every store the new root reaches.
func (c *Controller) RotateRoot(exclude ...pki.Identity) {
	if c.meta == nil || c.stopped || c.metaLeader() != c.cfg.ID {
		return
	}
	cur := c.meta.store.Root()
	if cur == nil {
		return
	}
	drop := make(map[pki.Identity]bool, len(exclude))
	for _, id := range exclude {
		drop[id] = true
	}
	var keys []metarepo.RoleKey
	for _, m := range c.members {
		if drop[m] {
			continue
		}
		pub, ok := c.cfg.Directory.Lookup(m)
		if !ok {
			continue
		}
		keys = append(keys, metarepo.RoleKey{KeyID: string(m), Pub: append([]byte(nil), pub...)})
	}
	if len(keys) == 0 {
		return
	}
	root := metarepo.RootAt(cur.Version+1, c.Quorum(), keys,
		int64(c.cfg.Net.Now()), c.cfg.Metadata.ttlNS())
	signed := metarepo.Encode(root)
	c.meta.shareCol = metarepo.NewShareCollector(c.cfg.Scheme, c.cfg.GroupKey, root.Version, signed)
	// Propose to peers, then count our own share.
	c.multicastRootProposal(signed)
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.BLSSignShare)
	sh := metarepo.SignRootShare(c.cfg.Scheme, c.cfg.Share, signed)
	c.handleMetaShare(protocol.MsgMetaShare{
		Version: root.Version, Signed: signed,
		ShareIndex: sh.Index, Share: c.cfg.Scheme.Params.PointBytes(sh.Point),
	})
}

// multicastRootProposal sends the unsigned next-root document to every
// other member for share signing.
func (c *Controller) multicastRootProposal(signed []byte) {
	prop := protocol.MsgMeta{Env: protocol.MetaEnvelope{Role: protocol.MetaRoleRoot, Signed: signed}}
	for _, m := range c.members {
		if m == c.cfg.ID {
			continue
		}
		c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(m), prop, len(signed)+96)
	}
}

// handleMetaRootProposal validates a leader's next-root proposal and
// answers with a BLS share over the exact proposed bytes. Members only
// endorse a monotonic successor whose delegated keys all belong to
// directory-verified identities — a Byzantine leader cannot smuggle a
// foreign key into the delegation.
func (c *Controller) handleMetaRootProposal(env protocol.MetaEnvelope) {
	// A retired member holds no share (removal installs an empty one) and
	// must not endorse rotations it is no longer part of.
	if c.meta == nil || c.cfg.Share.Scalar == nil {
		return
	}
	var doc metarepo.Root
	if json.Unmarshal(env.Signed, &doc) != nil {
		return
	}
	cur := c.meta.store.Root()
	if cur == nil || doc.Version != cur.Version+1 {
		return
	}
	for _, d := range doc.Roles {
		if d.Threshold < 1 {
			return
		}
		for _, k := range d.Keys {
			pub, ok := c.cfg.Directory.Lookup(pki.Identity(k.KeyID))
			if !ok || !bytesEqual(pub, k.Pub) {
				return
			}
		}
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.BLSSignShare)
	sh := metarepo.SignRootShare(c.cfg.Scheme, c.cfg.Share, env.Signed)
	m := protocol.MsgMetaShare{
		Version: doc.Version, Signed: env.Signed,
		ShareIndex: sh.Index, Share: c.cfg.Scheme.Params.PointBytes(sh.Point),
	}
	if leader := c.metaLeader(); leader != c.cfg.ID {
		c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(leader), m, len(env.Signed)+128)
		return
	}
	c.handleMetaShare(m)
}

// handleMetaShare collects root shares at the leader. Shares that fail
// against the current commitments — garbage or retired pre-reshare
// shares — are counted and discarded.
func (c *Controller) handleMetaShare(m protocol.MsgMetaShare) {
	if c.meta == nil || c.meta.shareCol == nil {
		return
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.BLSVerifyShare+c.cfg.Cost.MsgProcess)
	col := c.meta.shareCol
	before := col.StaleRejected
	env, done, _ := col.Add(m)
	c.MetaStaleShares += uint64(col.StaleRejected - before)
	if !done {
		return
	}
	c.meta.shareCol = nil
	if err := c.meta.store.Apply(env); err != nil {
		return
	}
	c.multicastMeta(protocol.MsgMeta{Env: env})
}

// handleMeta consumes a pushed metadata envelope: an unsigned root is a
// rotation proposal; everything else goes through the trusted store.
func (c *Controller) handleMeta(m protocol.MsgMeta) {
	if c.meta == nil {
		return
	}
	if m.Env.Role == protocol.MetaRoleRoot && len(m.Env.Sigs) == 0 {
		c.handleMetaRootProposal(m.Env)
		return
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.Ed25519Verify+c.cfg.Cost.MsgProcess)
	_ = c.meta.store.Apply(m.Env)
}

// handleMetaSet adopts a pushed metadata set through the trusted store.
func (c *Controller) handleMetaSet(m protocol.MsgMetaSet) {
	if c.meta == nil {
		return
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID),
		time.Duration(len(m.Envs))*(c.cfg.Cost.Ed25519Verify+c.cfg.Cost.MsgProcess))
	if err := c.meta.store.ApplySet(m.Envs); err != nil {
		return
	}
	// Keep the derived-version counter in step when this controller
	// learns of sets it missed (e.g. after recovery).
	if tg := c.meta.store.PolicyTargets(); tg != nil && tg.Version > c.meta.version {
		c.meta.version = tg.Version
	}
}

// handleMetaRequest serves the full verified metadata set to the
// restarted peer or switch that asked.
func (c *Controller) handleMetaRequest(from fabric.NodeID) {
	if c.meta == nil {
		return
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.MsgProcess)
	envs := c.meta.store.CurrentSet()
	if len(envs) == 0 {
		return
	}
	size := 0
	for _, env := range envs {
		size += len(env.Signed) + 128*len(env.Sigs)
	}
	c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), from, protocol.MsgMetaSet{Envs: envs}, size)
}

// requestMetaCatchup asks every peer for its current verified set
// (store monotonicity discards stale answers). Used when recovering.
func (c *Controller) requestMetaCatchup() {
	if c.meta == nil {
		return
	}
	req := protocol.MsgMetaRequest{}
	for _, m := range c.members {
		if m == c.cfg.ID {
			continue
		}
		c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(m), req, 64)
	}
}

// rotateRootAfterChange re-delegates the online roles to the
// post-change membership (completeChange calls it after the reshare
// installs fresh shares; leader only). The departing members' role keys
// retire with the new root, and their old BLS shares already fail
// against the fresh commitments.
func (c *Controller) rotateRootAfterChange() {
	if c.meta == nil || c.metaLeader() != c.cfg.ID {
		return
	}
	c.RotateRoot()
	// Publish the post-change policy bundle so switches hold a signed,
	// versioned record of the new membership (their config gate checks
	// phase-matched pushes against it).
	members := make([]string, len(c.members))
	for i, m := range c.members {
		members[i] = string(m)
	}
	c.PublishPolicy(metarepo.Policy{
		Phase:      c.phase,
		Members:    members,
		Quorum:     c.Quorum(),
		Aggregator: string(c.aggregatorID()),
	})
}

// bytesEqual avoids importing bytes for one comparison.
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
