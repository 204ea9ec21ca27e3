package bls

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"

	"cicero/internal/metrics"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/shamir"
)

// Verification fast paths: prepared-pairing caches, memoized share
// verification keys and Lagrange coefficient sets, and per-share culprit
// identification. Everything here changes only real (wall-clock) cost;
// protocol-visible behavior — which shares are accepted, which signature
// is produced — is bit-for-bit identical to the naive algorithms, so
// simulated virtual time (charged via the protocol cost model) is
// unaffected.

// cacheLimit bounds each internal memoization map. Deployments see a
// handful of group keys (one per epoch/reshare) and quorum shapes, so the
// caps exist only to keep pathological inputs from growing memory without
// bound; when a map fills, it is discarded and rebuilt.
const cacheLimit = 512

// preparedG returns the generator with precomputed Miller-loop lines.
func (s *Scheme) preparedG() *pairing.PreparedPoint {
	s.prepGOnce.Do(func() {
		s.prepG = s.Params.Prepare(s.Params.G)
	})
	return s.prepG
}

// preparedKey returns pk with precomputed Miller-loop lines, memoized by
// the point's canonical encoding. Group public keys are long-lived (they
// change only at DKG/reshare epochs), so the preparation cost — about one
// Miller loop — amortizes across every verification against that key.
func (s *Scheme) preparedKey(pk *pairing.Point) *pairing.PreparedPoint {
	key := string(s.Params.PointBytes(pk))
	s.mu.Lock()
	if prep, ok := s.prepKeys[key]; ok {
		s.mu.Unlock()
		return prep
	}
	s.mu.Unlock()
	prep := s.Params.Prepare(pk)
	s.mu.Lock()
	if s.prepKeys == nil {
		s.prepKeys = make(map[string]*pairing.PreparedPoint)
	}
	if len(s.prepKeys) >= cacheLimit {
		s.prepKeys = make(map[string]*pairing.PreparedPoint)
	}
	s.prepKeys[key] = prep
	s.mu.Unlock()
	return prep
}

// groupKeyDigest identifies a group key by hashing its Feldman commitment
// set. Commitments pin the whole sharing polynomial, so two group keys
// with equal digests derive identical share verification keys.
func (s *Scheme) groupKeyDigest(gk *GroupKey) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte("cicero/bls/gk-digest/v1"))
	for _, c := range gk.Commitments {
		h.Write(s.Params.PointBytes(c))
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// shareVKKey is the shareVKs cache key for (group key, share index).
func (s *Scheme) shareVKKey(gk *GroupKey, index uint32) string {
	d := s.groupKeyDigest(gk)
	var idx [4]byte
	binary.BigEndian.PutUint32(idx[:], index)
	return string(d[:]) + string(idx[:])
}

// lagrangeSet returns the interpolation-at-zero weights for a quorum index
// set, memoized: protocols re-form the same quorums (same controller
// subsets) for every update, so the modular inversions are paid once per
// distinct quorum shape.
func (s *Scheme) lagrangeSet(indices []uint32) ([]*big.Int, error) {
	keyBytes := make([]byte, 4*len(indices))
	for i, idx := range indices {
		binary.BigEndian.PutUint32(keyBytes[4*i:], idx)
	}
	key := string(keyBytes)
	s.mu.Lock()
	if set, ok := s.lagrange[key]; ok {
		s.mu.Unlock()
		metrics.Crypto.LagrangeCacheHits.Add(1)
		return set, nil
	}
	s.mu.Unlock()
	metrics.Crypto.LagrangeCacheMisses.Add(1)
	set, err := shamir.LagrangeCoefficients(s.Params.R, indices)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.lagrange == nil {
		s.lagrange = make(map[string][]*big.Int)
	}
	if len(s.lagrange) >= cacheLimit {
		s.lagrange = make(map[string][]*big.Int)
	}
	s.lagrange[key] = set
	s.mu.Unlock()
	return set, nil
}

// FilterVerifiedShares returns the subset of shares that verify against
// the group key for the given message point, preserving order. It is the
// culprit identification behind CombineVerified, reached only once an
// aggregate over the pool has already failed, so some share IS bad; quorum
// pools hold at most n shares, one check each.
func (s *Scheme) FilterVerifiedShares(gk *GroupKey, hm *pairing.Point, shares []SignatureShare) []SignatureShare {
	valid := make([]SignatureShare, 0, len(shares))
	for _, sh := range shares {
		if s.VerifyShareDigest(gk, hm, sh) {
			valid = append(valid, sh)
		}
	}
	return valid
}
