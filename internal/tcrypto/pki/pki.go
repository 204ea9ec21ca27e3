// Package pki provides the public key infrastructure the Cicero paper
// assumes for event authentication: every event source (switch, controller,
// administrator) holds an Ed25519 key pair registered in a directory.
// Statements that are stored, forwarded or checked by more than one party
// (metadata role signatures, provisioning bundles), and the batch release
// attestation, are signed with it; events and acks, which only their
// addressee ever checks, travel in envelopes tagged under a pairwise key
// derived from the same key pairs (see Link).
package pki

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Errors returned by the package.
var (
	// ErrUnknownIdentity reports a signature from an unregistered source.
	ErrUnknownIdentity = errors.New("pki: unknown identity")
	// ErrBadSignature reports a failed signature verification.
	ErrBadSignature = errors.New("pki: signature verification failed")
	// ErrDuplicateIdentity reports a second registration of the same name.
	ErrDuplicateIdentity = errors.New("pki: identity already registered")
)

// Identity names a protocol participant, e.g. "dom0/sw/tor-3" or
// "dom1/ctl/2".
type Identity string

// KeyPair is a participant's long-term signing key.
type KeyPair struct {
	ID      Identity
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// NewKeyPair generates a key pair for the given identity.
func NewKeyPair(rand io.Reader, id Identity) (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("pki: generate key for %q: %w", id, err)
	}
	return &KeyPair{ID: id, Public: pub, private: priv}, nil
}

// Seed exports the private key's 32-byte seed, the portable form a
// deployment planner packs into a node's signed provisioning bundle so a
// separate OS process can reconstruct the identical key pair.
func (k *KeyPair) Seed() []byte {
	return append([]byte(nil), k.private.Seed()...)
}

// KeyPairFromSeed rebuilds a key pair from an exported seed.
func KeyPairFromSeed(id Identity, seed []byte) (*KeyPair, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("pki: seed for %q: want %d bytes, got %d", id, ed25519.SeedSize, len(seed))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	return &KeyPair{ID: id, Public: pub, private: priv}, nil
}

// Sign signs msg with the participant's private key.
func (k *KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// Envelope is a payload authenticated to one addressee: the payload, the
// claimed sender, and the sender's Link tag over sender, addressee and
// payload. The addressee is not carried; whoever opens it supplies its own
// identity.
type Envelope struct {
	From    Identity
	Payload []byte
	Tag     []byte
}

// Directory maps identities to public keys. It is safe for concurrent use.
type Directory struct {
	mu   sync.RWMutex
	keys map[Identity]ed25519.PublicKey
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{keys: make(map[Identity]ed25519.PublicKey)}
}

// Register adds an identity's public key. Registering the same identity
// twice is an error (keys are long-term in Cicero; rotation would go
// through the membership protocol).
func (d *Directory) Register(id Identity, pub ed25519.PublicKey) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.keys[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateIdentity, id)
	}
	d.keys[id] = append(ed25519.PublicKey(nil), pub...)
	return nil
}

// MustRegister registers a key pair's public half, panicking on duplicates;
// it is a setup-time convenience for simulation assembly.
func (d *Directory) MustRegister(kp *KeyPair) {
	if err := d.Register(kp.ID, kp.Public); err != nil {
		panic(err)
	}
}

// Lookup returns the public key for an identity.
func (d *Directory) Lookup(id Identity) (ed25519.PublicKey, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	pub, ok := d.keys[id]
	return pub, ok
}

// Entries returns a copy of the directory: what a deployment planner packs
// into each node's provisioning bundle.
func (d *Directory) Entries() map[Identity]ed25519.PublicKey {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[Identity]ed25519.PublicKey, len(d.keys))
	for id, pub := range d.keys {
		out[id] = slices.Clone(pub)
	}
	return out
}

// Remove deletes an identity (e.g., a controller removed from the control
// plane whose event-layer key should no longer be accepted).
func (d *Directory) Remove(id Identity) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.keys, id)
}

// Verify checks msg's signature against the registered key for id.
func (d *Directory) Verify(id Identity, msg, sig []byte) error {
	pub, ok := d.Lookup(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownIdentity, id)
	}
	if !ed25519.Verify(pub, msg, sig) {
		return fmt.Errorf("%w: from %q", ErrBadSignature, id)
	}
	return nil
}

// Len returns the number of registered identities.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.keys)
}
