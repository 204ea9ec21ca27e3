package pki

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/big"
	"slices"
)

// TagSize is the byte length of an envelope tag (HMAC-SHA-256).
const TagSize = sha256.Size

var (
	// ErrBadTag reports an envelope whose tag does not authenticate its
	// claimed sender, this addressee and its payload.
	ErrBadTag = errors.New("pki: envelope tag verification failed")
	// ErrBadPeerKey reports a registered public key no pairwise key can be
	// derived from: a non-canonical encoding, the identity, or a point of
	// small order (whose shared secret is the same for every scalar).
	ErrBadPeerKey = errors.New("pki: public key unusable for link authentication")
)

// linkLabel domain-separates the pairwise key from any other use of the
// same X25519 shared secret.
var linkLabel = []byte("cicero/pki/link/v1")

// fieldPrime is 2^255 − 19, the field of Curve25519 and Ed25519.
var fieldPrime = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

// Link authenticates the envelopes one node exchanges with its peers. An
// envelope has exactly one verifier — the node it is sent to — so instead of
// a signature anyone could check it carries an HMAC-SHA-256 tag under a key
// only the two ends can compute: X25519 between their Ed25519 keys (the
// owner's RFC 8032 scalar, the peer's registered public key mapped to
// Curve25519), so the directory and the seed a node already holds are all
// the key material there is. The tag covers sender, addressee and payload;
// one made for another node, or reflected back to its maker, fails.
//
// A peer's key is derived on first use and kept only while the directory
// still returns the public key it was derived from. A Link belongs to one
// node and, like the node's other state, is not safe for concurrent use.
type Link struct {
	keys  *KeyPair
	dir   *Directory
	priv  *ecdh.PrivateKey
	peers map[Identity]*linkPeer
	// sum and size are scratch for the tag Open computes and the payload
	// length both directions write, so neither allocates per message.
	sum  [TagSize]byte
	size [8]byte
}

// linkPeer is the cached state for one peer.
type linkPeer struct {
	// pub is the registered key mac was derived from.
	pub ed25519.PublicKey
	mac hash.Hash
	// sealHead and openHead are the length-prefixed (sender, addressee)
	// identities of the two directions.
	sealHead, openHead []byte
}

// NewLink returns the link of the node holding keys, resolving peers in dir.
func NewLink(keys *KeyPair, dir *Directory) *Link {
	h := sha512.Sum512(keys.private.Seed())
	priv, err := ecdh.X25519().NewPrivateKey(h[:32])
	if err != nil {
		panic(fmt.Sprintf("pki: x25519 key from a 32-byte scalar: %v", err))
	}
	return &Link{keys: keys, dir: dir, priv: priv, peers: make(map[Identity]*linkPeer)}
}

// Seal wraps payload in an envelope only the named peer accepts.
func (l *Link) Seal(to Identity, payload []byte) (Envelope, error) {
	p, err := l.peer(to)
	if err != nil {
		return Envelope{}, err
	}
	tag := l.tag(p, p.sealHead, payload, make([]byte, 0, TagSize))
	return Envelope{From: l.keys.ID, Payload: payload, Tag: tag}, nil
}

// Open checks that env was sealed by its claimed sender for this link's
// owner and returns its payload.
func (l *Link) Open(env Envelope) ([]byte, error) {
	p, err := l.peer(env.From)
	if err != nil {
		return nil, err
	}
	if !hmac.Equal(l.tag(p, p.openHead, env.Payload, l.sum[:0]), env.Tag) {
		return nil, fmt.Errorf("%w: from %q", ErrBadTag, env.From)
	}
	return env.Payload, nil
}

// tag appends HMAC(key, head ‖ len(payload) ‖ payload) to dst.
func (l *Link) tag(p *linkPeer, head, payload, dst []byte) []byte {
	p.mac.Reset()
	p.mac.Write(head)
	binary.BigEndian.PutUint64(l.size[:], uint64(len(payload)))
	p.mac.Write(l.size[:])
	p.mac.Write(payload)
	return p.mac.Sum(dst)
}

// peer returns the state for id, deriving it when id is new or registered
// under a different key than the cached one. An identity the directory no
// longer knows is refused at once, whatever was cached.
func (l *Link) peer(id Identity) (*linkPeer, error) {
	pub, ok := l.dir.Lookup(id)
	if !ok {
		delete(l.peers, id)
		return nil, fmt.Errorf("%w: %q", ErrUnknownIdentity, id)
	}
	if p, ok := l.peers[id]; ok && bytes.Equal(p.pub, pub) {
		return p, nil
	}
	key, err := l.pairwiseKey(pub)
	if err != nil {
		delete(l.peers, id)
		return nil, fmt.Errorf("%w: %q: %v", ErrBadPeerKey, id, err)
	}
	p := &linkPeer{
		pub:      append(ed25519.PublicKey(nil), pub...),
		mac:      hmac.New(sha256.New, key),
		sealHead: linkHead(l.keys.ID, id),
		openHead: linkHead(id, l.keys.ID),
	}
	l.peers[id] = p
	return p, nil
}

// pairwiseKey derives the MAC key shared with the holder of pub:
// SHA-256(label ‖ X25519 shared secret ‖ both Ed25519 public keys, sorted).
func (l *Link) pairwiseKey(pub ed25519.PublicKey) ([]byte, error) {
	u, err := montgomeryU(pub)
	if err != nil {
		return nil, err
	}
	remote, err := ecdh.X25519().NewPublicKey(u)
	if err != nil {
		return nil, err
	}
	// ECDH fails on an all-zero shared secret, which is what every point of
	// small order produces.
	shared, err := l.priv.ECDH(remote)
	if err != nil {
		return nil, err
	}
	lo, hi := []byte(l.keys.Public), []byte(pub)
	if bytes.Compare(lo, hi) > 0 {
		lo, hi = hi, lo
	}
	h := sha256.New()
	h.Write(linkLabel)
	h.Write(shared)
	h.Write(lo)
	h.Write(hi)
	return h.Sum(nil), nil
}

// montgomeryU maps an Ed25519 public key (a compressed Edwards point: y with
// the sign of x in the top bit) to the u-coordinate of the same point on
// Curve25519, little-endian: u = (1+y)/(1−y) mod 2^255−19.
func montgomeryU(pub ed25519.PublicKey) ([]byte, error) {
	if len(pub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("public key of %d bytes", len(pub))
	}
	be := slices.Clone([]byte(pub))
	slices.Reverse(be)
	be[0] &= 0x7f
	y := new(big.Int).SetBytes(be)
	if y.Cmp(fieldPrime) >= 0 {
		return nil, errors.New("non-canonical y")
	}
	one := big.NewInt(1)
	den := new(big.Int).Sub(one, y)
	den.Mod(den, fieldPrime)
	if den.Sign() == 0 {
		return nil, errors.New("identity point")
	}
	u := new(big.Int).Add(one, y)
	u.Mul(u, den.ModInverse(den, fieldPrime))
	u.Mod(u, fieldPrime)
	le := u.FillBytes(make([]byte, len(pub)))
	slices.Reverse(le)
	return le, nil
}

// linkHead is the tag input's direction: both identities, length-prefixed.
func linkHead(from, to Identity) []byte {
	head := make([]byte, 0, 8+len(from)+len(to))
	head = binary.BigEndian.AppendUint32(head, uint32(len(from)))
	head = append(head, from...)
	head = binary.BigEndian.AppendUint32(head, uint32(len(to)))
	return append(head, to...)
}
