// Package metarepo is Cicero's TUF-style signed-metadata layer for
// policy, configuration, and membership distribution.
//
// Cicero threshold-signs individual flow rules, but everything around
// them — membership sets, quorum sizes, batching parameters, flow and
// waypoint policy — has historically been trusted implicitly: a single
// compromised controller (or the provisioning path) could feed switches
// stale or fabricated configuration without tripping any invariant. The
// Update Framework shows how role-separated, versioned, expiring signed
// metadata defeats exactly those attacks, and this package adapts its
// four-role design to Cicero's threshold-crypto substrate:
//
//   - root: the trust anchor. Threshold-signed under the DKG group key
//     (the one key switches already hold), it delegates each online role
//     to a set of Ed25519 keys with a per-role threshold, and rotating
//     it retires old role keys. Signing a new root requires a quorum of
//     controllers' BLS shares; after a proactive reshare the old shares
//     no longer verify against the fresh Feldman commitments, so a
//     retired sharing cannot mint roots even though the group public key
//     never changes.
//   - targets: the policy bundle — a phase's membership, quorum and
//     aggregator, which a switch's config gate checks config pushes
//     against.
//   - snapshot: a version vector binding the exact targets version and
//     digest, so an attacker cannot mix an old targets with a new
//     snapshot (mix-and-match).
//   - timestamp: a short-lived freshness proof binding the snapshot.
//     Its brief expiry bounds how long a freeze attack (replaying a
//     stale-but-valid set) can go unnoticed.
//
// Documents are canonically encoded (encoding/json with fixed field
// order and sorted maps — Marshal output is byte-stable), and the byte
// string actually signed is protocol.MetaSigningBytes(role, doc), which
// binds the role name so signatures cannot be transplanted across roles.
// The Store in store.go enforces monotonic versions, expiry, delegation
// membership, and digest bindings before anything is adopted.
package metarepo

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"

	"cicero/internal/protocol"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/pki"
)

// RoleKey is one Ed25519 key authorized for a delegated role. The key
// bytes travel in the root document itself (TUF-style), so role trust
// derives only from the threshold-signed root, never from the PKI
// directory a provisioner could tamper with.
type RoleKey struct {
	KeyID string `json:"key_id"`
	Pub   []byte `json:"pub"`
}

// Delegation is one role's authorized key set and signature threshold.
type Delegation struct {
	Threshold int       `json:"threshold"`
	Keys      []RoleKey `json:"keys"`
}

// Key returns the delegation's key bytes for an id, or nil.
func (d Delegation) Key(id string) []byte {
	for _, k := range d.Keys {
		if k.KeyID == id {
			return k.Pub
		}
	}
	return nil
}

// Header is the version and expiry every document starts with. Each
// document embeds it, so its fields lead the document's JSON.
type Header struct {
	Version   uint64 `json:"version"`
	ExpiresNS int64  `json:"expires_ns"`
}

// Root is the trust-anchor document. Roles maps each delegated role
// name (targets, snapshot, timestamp) to its delegation.
type Root struct {
	Header
	Roles map[string]Delegation `json:"roles"`
}

// Policy is the targets payload: everything a switch or node process
// previously accepted on faith from its provisioning bundle or an
// unauthenticated push.
type Policy struct {
	// Phase is the control-plane membership phase this bundle describes.
	Phase uint64 `json:"phase"`
	// Members, Quorum, Aggregator mirror MsgConfig's payload; a switch
	// adopts a config only when all three match.
	Members    []string `json:"members,omitempty"`
	Quorum     int      `json:"quorum,omitempty"`
	Aggregator string   `json:"aggregator,omitempty"`
}

// Targets is the policy-bundle document.
type Targets struct {
	Header
	Policy Policy `json:"policy"`
}

// Snapshot binds the exact targets version and digest.
type Snapshot struct {
	Header
	TargetsVersion uint64 `json:"targets_version"`
	TargetsDigest  []byte `json:"targets_digest"`
}

// Timestamp is the short-lived freshness proof binding the snapshot.
type Timestamp struct {
	Header
	SnapshotVersion uint64 `json:"snapshot_version"`
	SnapshotDigest  []byte `json:"snapshot_digest"`
}

// Encode canonically encodes a document. encoding/json emits struct
// fields in declaration order and map keys sorted, so the output is
// byte-stable across processes — every controller derives the identical
// signing bytes from the identical logical document.
func Encode(doc any) []byte {
	b, err := json.Marshal(doc)
	if err != nil {
		// Documents contain only marshalable fields; unreachable.
		panic(fmt.Sprintf("metarepo: encode: %v", err))
	}
	return b
}

// Decode parses a document Encode wrote, into its type or into a Header.
// It is the one reader of the format: nothing outside this package
// unmarshals a document itself.
func Decode(signed []byte, doc any) error { return json.Unmarshal(signed, doc) }

// Digest is the document digest used by snapshot/timestamp bindings and
// by the leader's signature grouping: SHA-256 over the canonical bytes.
func Digest(signed []byte) []byte {
	d := sha256.Sum256(signed)
	return d[:]
}

// ---- signing helpers ----

// SignRole produces one role key's signature over a document.
func SignRole(kp *pki.KeyPair, role string, signed []byte) protocol.MetaSig {
	return protocol.MetaSig{
		KeyID: string(kp.ID),
		Sig:   kp.Sign(protocol.MetaSigningBytes(role, signed)),
	}
}

// VerifyRoleSig checks one role signature against a delegation key.
func VerifyRoleSig(pub []byte, role string, signed []byte, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), protocol.MetaSigningBytes(role, signed), sig)
}

// SignRootShare produces one controller's BLS signature share over a
// root document (sent to the metadata leader as MsgMetaShare).
func SignRootShare(scheme *bls.Scheme, share bls.KeyShare, signed []byte) bls.SignatureShare {
	return scheme.SignShare(share, protocol.MetaSigningBytes(protocol.MetaRoleRoot, signed))
}

// SignRootDirect threshold-signs a root document when a quorum of
// shares is available in one place — the genesis path (core.Build, the
// distrib planner, cicero-keygen) where the DKG dealer already holds
// every share. It returns the complete envelope.
func SignRootDirect(scheme *bls.Scheme, gk *bls.GroupKey, shares []bls.KeyShare, root Root) (protocol.MetaEnvelope, error) {
	signed := Encode(root)
	msg := protocol.MetaSigningBytes(protocol.MetaRoleRoot, signed)
	if len(shares) < gk.T {
		return protocol.MetaEnvelope{}, fmt.Errorf("metarepo: root signing needs %d shares, have %d", gk.T, len(shares))
	}
	sigShares := make([]bls.SignatureShare, gk.T)
	for i := 0; i < gk.T; i++ {
		sigShares[i] = scheme.SignShare(shares[i], msg)
	}
	sig, err := scheme.Combine(gk, sigShares)
	if err != nil {
		return protocol.MetaEnvelope{}, fmt.Errorf("metarepo: combine root signature: %w", err)
	}
	return protocol.MetaEnvelope{
		Role:   protocol.MetaRoleRoot,
		Signed: signed,
		Sigs:   []protocol.MetaSig{{KeyID: protocol.MetaSigKeyGroup, Sig: sig.Bytes(scheme)}},
	}, nil
}

// GenesisRoot builds the version-1 root document delegating each online
// role to the given controllers' Ed25519 keys. The timestamp role gets
// threshold 1 (it is the high-frequency online role: any single current
// controller may refresh freshness, which keeps leader failover cheap);
// targets and snapshot require the control-plane quorum t.
func GenesisRoot(quorum int, controllers []*pki.KeyPair, issuedNS, ttlNS int64) Root {
	keys := make([]RoleKey, len(controllers))
	for i, kp := range controllers {
		keys[i] = RoleKey{KeyID: string(kp.ID), Pub: append([]byte(nil), kp.Public...)}
	}
	return RootAt(1, quorum, keys, issuedNS, ttlNS)
}

// RootAt builds a root document at an explicit version over an explicit
// role-key set (rotation reuses it with version+1 and a reduced or
// replaced key list).
func RootAt(version uint64, quorum int, keys []RoleKey, issuedNS, ttlNS int64) Root {
	if quorum < 1 {
		quorum = 1
	}
	if quorum > len(keys) {
		quorum = len(keys)
	}
	return Root{
		Header: Header{Version: version, ExpiresNS: issuedNS + ttlNS},
		Roles: map[string]Delegation{
			protocol.MetaRoleTargets:   {Threshold: quorum, Keys: keys},
			protocol.MetaRoleSnapshot:  {Threshold: quorum, Keys: keys},
			protocol.MetaRoleTimestamp: {Threshold: 1, Keys: keys},
		},
	}
}

// BuildSet derives the consistent (targets, snapshot, timestamp)
// document triple for a policy at the given versions. Every controller
// that runs this with identical inputs derives byte-identical documents,
// which is what lets a quorum sign without further coordination.
func BuildSet(policy Policy, version uint64, issuedNS, ttlNS, timestampTTLNS int64) (Targets, Snapshot, Timestamp) {
	tg := Targets{Header: Header{Version: version, ExpiresNS: issuedNS + ttlNS}, Policy: policy}
	tgBytes := Encode(tg)
	sn := Snapshot{
		Header:         Header{Version: version, ExpiresNS: issuedNS + ttlNS},
		TargetsVersion: tg.Version, TargetsDigest: Digest(tgBytes),
	}
	snBytes := Encode(sn)
	ts := Timestamp{
		Header:          Header{Version: version, ExpiresNS: issuedNS + timestampTTLNS},
		SnapshotVersion: sn.Version, SnapshotDigest: Digest(snBytes),
	}
	return tg, sn, ts
}

// RefreshTimestamp derives the next freshness proof over an existing
// snapshot: same binding, next version, fresh expiry.
func RefreshTimestamp(prev Timestamp, issuedNS, timestampTTLNS int64) Timestamp {
	return Timestamp{
		Header:          Header{Version: prev.Version + 1, ExpiresNS: issuedNS + timestampTTLNS},
		SnapshotVersion: prev.SnapshotVersion,
		SnapshotDigest:  prev.SnapshotDigest,
	}
}

// SignSet signs a document triple with every given controller key and
// assembles the three envelopes (genesis/planner path; the runtime path
// assembles envelopes from MsgMetaSig traffic instead).
func SignSet(tg Targets, sn Snapshot, ts Timestamp, signers []*pki.KeyPair) []protocol.MetaEnvelope {
	sign := func(role string, doc any) protocol.MetaEnvelope {
		signed := Encode(doc)
		env := protocol.MetaEnvelope{Role: role, Signed: signed}
		for _, kp := range signers {
			env.Sigs = append(env.Sigs, SignRole(kp, role, signed))
		}
		return env
	}
	return []protocol.MetaEnvelope{
		sign(protocol.MetaRoleTargets, tg),
		sign(protocol.MetaRoleSnapshot, sn),
		sign(protocol.MetaRoleTimestamp, ts),
	}
}

// SortSet orders envelopes in trust order — root, timestamp, snapshot,
// targets — the order Store.ApplySet verifies them in.
func SortSet(envs []protocol.MetaEnvelope) []protocol.MetaEnvelope {
	rank := map[string]int{
		protocol.MetaRoleRoot:      0,
		protocol.MetaRoleTimestamp: 1,
		protocol.MetaRoleSnapshot:  2,
		protocol.MetaRoleTargets:   3,
	}
	out := append([]protocol.MetaEnvelope(nil), envs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && rank[out[j].Role] < rank[out[j-1].Role]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// WriteGenesis serializes a genesis file: the root envelope plus the
// group public key material needed to verify it from nothing
// (cicero-keygen emits this; deployments check it into their trust
// store).
type GenesisFile struct {
	// GroupKey is the wire form of the DKG group key: threshold, size,
	// public key point, Feldman commitments (all public material).
	GroupKeyT           int      `json:"group_key_t"`
	GroupKeyN           int      `json:"group_key_n"`
	GroupKeyPK          []byte   `json:"group_key_pk"`
	GroupKeyCommitments [][]byte `json:"group_key_commitments"`
	Root                protocol.MetaEnvelope
}

// EncodeGenesis writes a genesis file for a root envelope.
func EncodeGenesis(w io.Writer, scheme *bls.Scheme, gk *bls.GroupKey, rootEnv protocol.MetaEnvelope) error {
	g := GenesisFile{
		GroupKeyT:  gk.T,
		GroupKeyN:  gk.N,
		GroupKeyPK: scheme.Params.PointBytes(gk.PK.Point),
		Root:       rootEnv,
	}
	for _, c := range gk.Commitments {
		g.GroupKeyCommitments = append(g.GroupKeyCommitments, scheme.Params.PointBytes(c))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// DecodeGenesis parses a genesis file and reconstructs the group key.
func DecodeGenesis(r io.Reader, scheme *bls.Scheme) (*bls.GroupKey, protocol.MetaEnvelope, error) {
	var g GenesisFile
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, protocol.MetaEnvelope{}, fmt.Errorf("metarepo: genesis: %w", err)
	}
	pk, err := scheme.Params.ParsePoint(g.GroupKeyPK)
	if err != nil {
		return nil, protocol.MetaEnvelope{}, fmt.Errorf("metarepo: genesis group key: %w", err)
	}
	gk := &bls.GroupKey{T: g.GroupKeyT, N: g.GroupKeyN, PK: bls.PublicKey{Point: pk}}
	for _, c := range g.GroupKeyCommitments {
		pt, err := scheme.Params.ParsePoint(c)
		if err != nil {
			return nil, protocol.MetaEnvelope{}, fmt.Errorf("metarepo: genesis commitment: %w", err)
		}
		gk.Commitments = append(gk.Commitments, pt)
	}
	return gk, g.Root, nil
}
