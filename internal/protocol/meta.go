package protocol

// Wire vocabulary for the TUF-style signed-metadata layer
// (internal/metarepo): role-tagged signed documents, the threshold-share
// and role-signature collection messages controllers exchange while
// assembling an envelope, and the set push/fetch pair switches and node
// processes use to stay current. The messages are plain structs to the wire
// codec — the crypto rides inside as explicit bytes (canonical document
// bytes, Ed25519 signatures, combined BLS signatures), so the documents
// stay byte-stable for signing whatever carries them.

// Metadata role names. The role set is fixed: root delegates to the
// other three and is threshold-signed under the DKG group key; targets
// carries the policy bundle; snapshot binds the targets version;
// timestamp is the short-lived freshness proof.
const (
	MetaRoleRoot      = "root"
	MetaRoleTargets   = "targets"
	MetaRoleSnapshot  = "snapshot"
	MetaRoleTimestamp = "timestamp"
)

// MetaSigKeyGroup is the KeyID of the combined BLS threshold signature a
// root envelope carries (the group key has no per-member identity).
const MetaSigKeyGroup = "group"

// MetaSig is one signature over a metadata document's signing bytes.
// For the root role it is the combined BLS threshold signature
// (KeyID=MetaSigKeyGroup); for delegated roles it is one role key's
// Ed25519 signature and KeyID names the signing identity.
type MetaSig struct {
	KeyID string `json:"key_id"`
	Sig   []byte `json:"sig"`
}

// MetaEnvelope is a signed metadata document: the role name, the
// document's canonical bytes, and the signatures over
// MetaSigningBytes(Role, Signed). Verifiers parse Signed only after the
// signatures check out against the keys the current root delegates to
// the role.
type MetaEnvelope struct {
	Role   string    `json:"role"`
	Signed []byte    `json:"signed"`
	Sigs   []MetaSig `json:"sigs,omitempty"`
}

// MetaSigningBytes is the byte string actually signed for a metadata
// document. The role tag is bound into the signature so an envelope
// cannot be transplanted across roles (a valid timestamp signature must
// not verify as a snapshot signature even if a key serves both roles).
func MetaSigningBytes(role string, signed []byte) []byte {
	out := make([]byte, 0, len(role)+len(signed)+16)
	out = append(out, "meta|role="...)
	out = append(out, role...)
	out = append(out, '|')
	return append(out, signed...)
}

// MsgMeta pushes one signed metadata envelope to a switch, controller,
// or node process.
type MsgMeta struct {
	Env MetaEnvelope
}

// MsgMetaSet pushes a consistent metadata set. Receivers apply the
// envelopes in trust order (root, timestamp, snapshot, targets); the
// store's binding checks make any spliced or partial set fail closed.
type MsgMetaSet struct {
	Envs []MetaEnvelope
}

// MsgMetaRequest asks a controller for its current verified metadata
// set (bootstrap and catch-up for switches and node processes); the answer
// goes to the sender.
type MsgMetaRequest struct{}

// MsgMetaShare is one controller's BLS signature share over a root
// document's signing bytes, sent to the metadata leader for
// combination. The leader verifies each share against the current
// Feldman commitments, so shares from a retired sharing (pre-reshare)
// are rejected even though the group public key never changes.
type MsgMetaShare struct {
	Version    uint64
	Signed     []byte
	ShareIndex uint32
	Share      []byte
}

// MsgMetaSig is one controller's Ed25519 role signature over a
// delegated-role document, sent to the metadata leader for assembly
// into an envelope once the role's threshold is reached. Digest is the
// SHA-256 of Signed so the leader can group signatures without trusting
// the (larger) document bytes of every sender.
type MsgMetaSig struct {
	Role    string
	Version uint64
	Digest  []byte
	Signed  []byte
	KeyID   string
	Sig     []byte
}
