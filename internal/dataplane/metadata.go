// Switch-side metadata plane: every switch keeps a trusted-metadata
// store (internal/metarepo) seeded from the provisioning root of trust
// and fed by controller pushes. The store verifies role signatures,
// version monotonicity, expiry, and the snapshot/timestamp bindings
// before anything is adopted, so a compromised controller — or the
// distribution path itself — cannot roll the switch back to an old
// policy, freeze it on a stale one, or splice documents from different
// sets. Verified policy metadata also gates configuration adoption:
// once the switch holds a targets document for a membership phase, a
// config push for that phase must agree with it.
package dataplane

import (
	"fmt"

	"cicero/internal/fabric"
	"cicero/internal/metarepo"
	"cicero/internal/protocol"
)

// MetadataConfig enables the trusted-metadata store on a switch.
type MetadataConfig struct {
	// Genesis is the threshold-signed version-1 root (root of trust).
	Genesis protocol.MetaEnvelope
}

// initMetadata builds and seeds the switch's trusted store (called from
// New; requires the threshold scheme and group key).
func (s *Switch) initMetadata() error {
	mc := s.cfg.Metadata
	if mc == nil || s.cfg.Scheme == nil || s.cfg.GroupKey == nil {
		return nil
	}
	store := metarepo.NewStore(s.cfg.Scheme, s.cfg.GroupKey.PK,
		func() int64 { return int64(s.cfg.Net.Now()) })
	if err := store.Apply(mc.Genesis); err != nil {
		return fmt.Errorf("dataplane: switch %q: metadata genesis: %w", s.cfg.ID, err)
	}
	s.meta = store
	return nil
}

// MetaStore exposes the switch's trusted-metadata store (nil when the
// metadata plane is disabled).
func (s *Switch) MetaStore() *metarepo.Store { return s.meta }

// handleMeta adopts one pushed metadata envelope through the store.
// Unsigned root proposals are controller-internal traffic and ignored.
func (s *Switch) handleMeta(m protocol.MsgMeta) {
	if s.meta == nil {
		return
	}
	if m.Env.Role == protocol.MetaRoleRoot && len(m.Env.Sigs) == 0 {
		return
	}
	s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID), s.cfg.Cost.Ed25519Verify+s.cfg.Cost.MsgProcess)
	_ = s.meta.Apply(m.Env)
}

// handleMetaSet adopts a pushed metadata set through the store.
func (s *Switch) handleMetaSet(m protocol.MsgMetaSet) {
	if s.meta == nil {
		return
	}
	for range m.Envs {
		s.cfg.Net.Charge(fabric.NodeID(s.cfg.ID), s.cfg.Cost.Ed25519Verify+s.cfg.Cost.MsgProcess)
	}
	_ = s.meta.ApplySet(m.Envs)
}

// RequestMeta asks every known controller for its current verified
// metadata set. A restarted switch calls it alongside RequestResync;
// the store's monotonic-version checks make stale answers harmless.
func (s *Switch) RequestMeta() {
	if s.meta == nil {
		return
	}
	req := protocol.MsgMetaRequest{}
	for _, ctl := range s.cfg.Controllers {
		s.cfg.Net.Send(fabric.NodeID(s.cfg.ID), fabric.NodeID(ctl), req, 64)
	}
}

// metaAllowsConfig gates configuration adoption on the verified policy
// metadata: if the store holds a targets document for the config's
// membership phase, the config's members, quorum and aggregator must
// match the signed ones. A store at another phase does not block —
// metadata distribution is asynchronous — but it can never be used to
// smuggle in a configuration the signed policy contradicts.
func (s *Switch) metaAllowsConfig(m protocol.MsgConfig) bool {
	if s.meta == nil {
		return true
	}
	tg := s.meta.PolicyTargets()
	if tg == nil || tg.Policy.Phase != m.Phase || len(tg.Policy.Members) == 0 {
		return true
	}
	p := tg.Policy
	if p.Quorum != m.Quorum || p.Aggregator != string(m.Aggregator) || len(p.Members) != len(m.Members) {
		return false
	}
	for i, id := range m.Members {
		if p.Members[i] != string(id) {
			return false
		}
	}
	return true
}
