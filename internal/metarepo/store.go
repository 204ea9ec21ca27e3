package metarepo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"cicero/internal/protocol"
	"cicero/internal/tcrypto/bls"
)

// Rejection reasons, used as counters and as chaos invariant classes.
const (
	RejectBadEncoding = "meta-bad-encoding"
	RejectBadSig      = "meta-bad-sig"
	RejectWrongRole   = "meta-wrong-role"
	RejectRetiredKey  = "meta-retired-key"
	RejectThreshold   = "meta-threshold"
	RejectRollback    = "meta-rollback"
	RejectExpired     = "meta-expired"
	RejectMixMatch    = "meta-mix-match"
	RejectNoRoot      = "meta-no-root"
)

// RejectError is a classified verification failure.
type RejectError struct {
	Reason string
	Detail string
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("metarepo: %s: %s", e.Reason, e.Detail)
}

// Reason classifies an Apply error ("" for nil or untyped errors).
func Reason(err error) string {
	if re, ok := err.(*RejectError); ok {
		return re.Reason
	}
	return ""
}

// Store is a trusted-metadata store: it holds the latest verified
// document per role and refuses everything that fails the TUF checks —
// wrong or retired keys, sub-threshold signatures, version rollback,
// expired documents, and mix-and-match bindings. Switches, controllers,
// and cicero-node processes each keep one; nothing from the metadata
// plane is acted on unless its envelope passed this gate.
//
// The store is safe for concurrent use (live fabrics deliver from
// socket goroutines).
type Store struct {
	mu     sync.Mutex
	scheme *bls.Scheme
	// groupPK verifies root envelopes. It is the DKG group public key,
	// which proactive resharing never changes.
	groupPK bls.PublicKey

	root          *Root
	rootSigned    []byte
	targets       *Targets
	targetsSigned []byte
	snapshot      *Snapshot
	timestamp     *Timestamp
	// envs retains the adopted envelope per role so the store can serve
	// metadata requests (MsgMetaRequest) from restarted peers.
	envs map[string]protocol.MetaEnvelope

	// retired remembers role-key ids a previous root delegated that the
	// current root dropped — the signal that distinguishes a
	// key-compromise replay from ordinary garbage.
	retired map[string]bool

	// now supplies the verifier's clock in nanoseconds (fabric time on
	// simnet, wall clock on live backends).
	now func() int64

	// bypass disables verification — the chaos canary proving the
	// invariant plane notices a broken store.
	bypass bool

	rejected map[string]int
}

// NewStore builds a store trusting the given group public key. now
// supplies the local clock in nanoseconds.
func NewStore(scheme *bls.Scheme, groupPK bls.PublicKey, now func() int64) *Store {
	return &Store{
		scheme:   scheme,
		groupPK:  groupPK,
		retired:  make(map[string]bool),
		now:      now,
		rejected: make(map[string]int),
		envs:     make(map[string]protocol.MetaEnvelope),
	}
}

// SetVerifyBypass turns verification off (chaos canary only).
func (s *Store) SetVerifyBypass(on bool) {
	s.mu.Lock()
	s.bypass = on
	s.mu.Unlock()
}

// Rejections returns a copy of the per-reason rejection counters.
func (s *Store) Rejections() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.rejected))
	for k, v := range s.rejected {
		out[k] = v
	}
	return out
}

// Versions returns the current (root, targets, snapshot, timestamp)
// versions, zero where nothing is adopted yet.
func (s *Store) Versions() (root, targets, snapshot, timestamp uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.root != nil {
		root = s.root.Version
	}
	if s.targets != nil {
		targets = s.targets.Version
	}
	if s.snapshot != nil {
		snapshot = s.snapshot.Version
	}
	if s.timestamp != nil {
		timestamp = s.timestamp.Version
	}
	return
}

// PolicyTargets returns the current verified targets document (nil if
// none adopted).
func (s *Store) PolicyTargets() *Targets {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.targets == nil {
		return nil
	}
	cp := *s.targets
	return &cp
}

// Root returns the current verified root document (nil if none).
func (s *Store) Root() *Root {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.root == nil {
		return nil
	}
	cp := *s.root
	return &cp
}

// TimestampDoc returns the current freshness proof (nil if none).
func (s *Store) TimestampDoc() *Timestamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.timestamp == nil {
		return nil
	}
	cp := *s.timestamp
	return &cp
}

// Fresh reports whether the store's freshness proof covers nowNS. A
// store with no timestamp is not fresh: policy must never be acted on
// without a live freshness proof. A bypassed store lies (claims fresh
// unconditionally) — that is the freeze canary the invariant plane must
// catch.
func (s *Store) Fresh(nowNS int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bypass {
		return true
	}
	return s.timestamp != nil && nowNS <= s.timestamp.ExpiresNS
}

// CurrentSet returns the adopted envelopes in trust order (root,
// timestamp, snapshot, targets) — the full verifiable set a restarted
// peer needs to catch up.
func (s *Store) CurrentSet() []protocol.MetaEnvelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []protocol.MetaEnvelope
	for _, role := range []string{protocol.MetaRoleRoot, protocol.MetaRoleTimestamp,
		protocol.MetaRoleSnapshot, protocol.MetaRoleTargets} {
		if env, ok := s.envs[role]; ok {
			out = append(out, env)
		}
	}
	return out
}

// Retired reports whether a role-key id was delegated by an earlier
// root and dropped since.
func (s *Store) Retired(keyID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retired[keyID]
}

// Apply verifies one envelope and adopts it on success. The error, when
// non-nil, is a *RejectError classifying the failure.
func (s *Store) Apply(env protocol.MetaEnvelope) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(env)
}

// ApplySet applies a metadata set in trust order (root, timestamp,
// snapshot, targets), returning the first error. Re-deliveries of
// already-current envelopes are not errors, so a full-set push is
// idempotent.
func (s *Store) ApplySet(envs []protocol.MetaEnvelope) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, env := range SortSet(envs) {
		if err := s.applyLocked(env); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) applyLocked(env protocol.MetaEnvelope) error {
	var err error
	switch env.Role {
	case protocol.MetaRoleRoot:
		err = s.applyRoot(env)
	case protocol.MetaRoleTargets, protocol.MetaRoleSnapshot, protocol.MetaRoleTimestamp:
		err = s.applyDelegated(env)
	default:
		err = &RejectError{Reason: RejectBadEncoding, Detail: fmt.Sprintf("unknown role %q", env.Role)}
	}
	if err != nil {
		if r := Reason(err); r != "" {
			s.rejected[r]++
		}
		return err
	}
	return nil
}

func (s *Store) applyRoot(env protocol.MetaEnvelope) error {
	var doc Root
	if err := decodeStrictJSON(env.Signed, &doc); err != nil {
		return &RejectError{Reason: RejectBadEncoding, Detail: fmt.Sprintf("root: %v", err)}
	}
	if !s.bypass {
		if s.root != nil && doc.Version < s.root.Version {
			return &RejectError{Reason: RejectRollback,
				Detail: fmt.Sprintf("root v%d < adopted v%d", doc.Version, s.root.Version)}
		}
		if s.root != nil && doc.Version == s.root.Version {
			if bytes.Equal(env.Signed, s.rootSigned) {
				return nil // idempotent re-delivery
			}
			return &RejectError{Reason: RejectRollback,
				Detail: fmt.Sprintf("conflicting root at v%d", doc.Version)}
		}
		if s.now() > doc.ExpiresNS {
			return &RejectError{Reason: RejectExpired, Detail: fmt.Sprintf("root v%d expired", doc.Version)}
		}
		for _, role := range []string{protocol.MetaRoleTargets, protocol.MetaRoleSnapshot, protocol.MetaRoleTimestamp} {
			d, ok := doc.Roles[role]
			if !ok || d.Threshold < 1 || len(d.Keys) < d.Threshold {
				return &RejectError{Reason: RejectBadEncoding,
					Detail: fmt.Sprintf("root v%d: role %q under-delegated", doc.Version, role)}
			}
		}
		sig, err := s.rootSignature(env)
		if err != nil {
			return err
		}
		msg := protocol.MetaSigningBytes(protocol.MetaRoleRoot, env.Signed)
		if !s.scheme.Verify(s.groupPK, msg, sig) {
			return &RejectError{Reason: RejectBadSig, Detail: fmt.Sprintf("root v%d: threshold signature invalid", doc.Version)}
		}
	}
	// Retire every key id the outgoing root delegated that the incoming
	// one dropped (rotation is how compromise recovery works: a retired
	// key's signatures stop counting the instant the new root lands).
	if s.root != nil {
		current := make(map[string]bool)
		for _, d := range doc.Roles {
			for _, k := range d.Keys {
				current[k.KeyID] = true
			}
		}
		for _, d := range s.root.Roles {
			for _, k := range d.Keys {
				if !current[k.KeyID] {
					s.retired[k.KeyID] = true
				}
			}
		}
		for id := range current {
			delete(s.retired, id)
		}
	}
	s.root = &doc
	s.rootSigned = append([]byte(nil), env.Signed...)
	s.envs[protocol.MetaRoleRoot] = env
	return nil
}

// rootSignature extracts and parses the combined BLS signature.
func (s *Store) rootSignature(env protocol.MetaEnvelope) (bls.Signature, error) {
	for _, sig := range env.Sigs {
		if sig.KeyID != protocol.MetaSigKeyGroup {
			continue
		}
		pt, err := s.scheme.Params.ParsePoint(sig.Sig)
		if err != nil {
			return bls.Signature{}, &RejectError{Reason: RejectBadSig, Detail: fmt.Sprintf("root signature: %v", err)}
		}
		return bls.Signature{Point: pt}, nil
	}
	return bls.Signature{}, &RejectError{Reason: RejectThreshold, Detail: "root: no group signature"}
}

// delegatedDoc is the version/expiry header shared by all delegated
// documents.
type delegatedDoc struct {
	Version   uint64 `json:"version"`
	ExpiresNS int64  `json:"expires_ns"`
}

func (s *Store) applyDelegated(env protocol.MetaEnvelope) error {
	role := env.Role
	var hdr delegatedDoc
	if err := decodeStrictJSON(env.Signed, &hdr); err != nil {
		return &RejectError{Reason: RejectBadEncoding, Detail: fmt.Sprintf("%s: %v", role, err)}
	}
	if !s.bypass {
		if s.root == nil {
			return &RejectError{Reason: RejectNoRoot, Detail: fmt.Sprintf("%s v%d before any root", role, hdr.Version)}
		}
		if err := s.verifyDelegatedSigs(role, hdr.Version, env); err != nil {
			return err
		}
		cur := s.currentVersion(role)
		if hdr.Version < cur {
			return &RejectError{Reason: RejectRollback,
				Detail: fmt.Sprintf("%s v%d < adopted v%d", role, hdr.Version, cur)}
		}
		if hdr.Version == cur && cur != 0 {
			if role == protocol.MetaRoleTargets && bytes.Equal(env.Signed, s.targetsSigned) {
				return nil // idempotent re-delivery
			}
			if role != protocol.MetaRoleTargets {
				return nil // snapshot/timestamp re-delivery at same version
			}
			return &RejectError{Reason: RejectRollback, Detail: fmt.Sprintf("conflicting %s at v%d", role, hdr.Version)}
		}
		if s.now() > hdr.ExpiresNS {
			return &RejectError{Reason: RejectExpired, Detail: fmt.Sprintf("%s v%d expired", role, hdr.Version)}
		}
	}
	switch role {
	case protocol.MetaRoleTimestamp:
		var doc Timestamp
		if err := decodeStrictJSON(env.Signed, &doc); err != nil {
			return &RejectError{Reason: RejectBadEncoding, Detail: fmt.Sprintf("timestamp: %v", err)}
		}
		s.timestamp = &doc
	case protocol.MetaRoleSnapshot:
		var doc Snapshot
		if err := decodeStrictJSON(env.Signed, &doc); err != nil {
			return &RejectError{Reason: RejectBadEncoding, Detail: fmt.Sprintf("snapshot: %v", err)}
		}
		// Mix-and-match gate: the freshness proof names exactly one
		// snapshot (version + digest); anything else is a splice.
		if !s.bypass {
			if s.timestamp == nil {
				return &RejectError{Reason: RejectMixMatch, Detail: "snapshot before timestamp"}
			}
			if s.timestamp.SnapshotVersion != doc.Version ||
				!bytes.Equal(s.timestamp.SnapshotDigest, Digest(env.Signed)) {
				return &RejectError{Reason: RejectMixMatch,
					Detail: fmt.Sprintf("snapshot v%d not the one the timestamp binds (v%d)", doc.Version, s.timestamp.SnapshotVersion)}
			}
		}
		s.snapshot = &doc
	case protocol.MetaRoleTargets:
		var doc Targets
		if err := decodeStrictJSON(env.Signed, &doc); err != nil {
			return &RejectError{Reason: RejectBadEncoding, Detail: fmt.Sprintf("targets: %v", err)}
		}
		if !s.bypass {
			if s.snapshot == nil {
				return &RejectError{Reason: RejectMixMatch, Detail: "targets before snapshot"}
			}
			if s.snapshot.TargetsVersion != doc.Version ||
				!bytes.Equal(s.snapshot.TargetsDigest, Digest(env.Signed)) {
				return &RejectError{Reason: RejectMixMatch,
					Detail: fmt.Sprintf("targets v%d not the one the snapshot binds (v%d)", doc.Version, s.snapshot.TargetsVersion)}
			}
		}
		s.targets = &doc
		s.targetsSigned = append([]byte(nil), env.Signed...)
	}
	s.envs[role] = env
	return nil
}

// currentVersion returns the adopted version for a delegated role.
func (s *Store) currentVersion(role string) uint64 {
	switch role {
	case protocol.MetaRoleTargets:
		if s.targets != nil {
			return s.targets.Version
		}
	case protocol.MetaRoleSnapshot:
		if s.snapshot != nil {
			return s.snapshot.Version
		}
	case protocol.MetaRoleTimestamp:
		if s.timestamp != nil {
			return s.timestamp.Version
		}
	}
	return 0
}

// verifyDelegatedSigs counts valid signatures from the role's current
// delegation and classifies the failure when the threshold is missed.
func (s *Store) verifyDelegatedSigs(role string, version uint64, env protocol.MetaEnvelope) error {
	d, ok := s.root.Roles[role]
	if !ok {
		return &RejectError{Reason: RejectWrongRole, Detail: fmt.Sprintf("root delegates no %q role", role)}
	}
	valid := 0
	seen := make(map[string]bool)
	sawRetired, sawForeign, sawBad := false, false, false
	for _, sig := range env.Sigs {
		if seen[sig.KeyID] {
			continue
		}
		seen[sig.KeyID] = true
		pub := d.Key(sig.KeyID)
		if pub == nil {
			if s.retired[sig.KeyID] {
				sawRetired = true
			} else {
				sawForeign = true
			}
			continue
		}
		if VerifyRoleSig(pub, role, env.Signed, sig.Sig) {
			valid++
		} else {
			sawBad = true
		}
	}
	if valid >= d.Threshold {
		return nil
	}
	detail := fmt.Sprintf("%s v%d: %d/%d valid role signatures", role, version, valid, d.Threshold)
	switch {
	case sawRetired:
		return &RejectError{Reason: RejectRetiredKey, Detail: detail + " (retired key offered)"}
	case sawForeign:
		return &RejectError{Reason: RejectWrongRole, Detail: detail + " (undelegated key offered)"}
	case sawBad:
		return &RejectError{Reason: RejectBadSig, Detail: detail}
	default:
		return &RejectError{Reason: RejectThreshold, Detail: detail}
	}
}

// decodeStrictJSON unmarshals a document body.
func decodeStrictJSON(data []byte, v any) error {
	return json.Unmarshal(data, v)
}
