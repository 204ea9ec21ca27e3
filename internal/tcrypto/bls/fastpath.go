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

// prepared returns the generator G and G′ = (h⁻¹ mod r)·G with
// precomputed Miller-loop lines: G′ for checks on the uncleared hash point
// (checkOn), G for checks on a cleared one.
func (s *Scheme) prepared() (g, gPrime *pairing.PreparedPoint) {
	s.prepOnce.Do(func() {
		hInv := new(big.Int).ModInverse(s.Params.H, s.Params.R)
		s.prepG = s.Params.Prepare(s.Params.G)
		s.prepGPrime = s.Params.Prepare(s.Params.ScalarBaseMul(hInv))
	})
	return s.prepG, s.prepGPrime
}

// pairsToOne reports e(g, σ)·e(X, −m) == 1 for X the first argument of
// key: one product pairing.
func (s *Scheme) pairsToOne(g *pairing.PreparedPoint, key pairing.ProductTerm, m, sig *pairing.Point) bool {
	key.B = s.Params.Neg(m)
	return s.Params.PairProduct(pairing.ProductTerm{Prep: g, B: sig}, key).IsOne()
}

// checkOn decides the verification equation e(G, σ)·e(X, −H(m)) == 1,
// for X the first argument of key and H(m) = HashToG1(msg), starting from
// the uncleared candidate c = HashToCurve(msg). The reduced pairing is
// bilinear in its second argument over all of E(F_p) and its values have
// order r, so for G′ = (h⁻¹ mod r)·G
//
//	e(G′, σ)·e(X, −c) = (e(G, σ)·e(X, −h·c))^(h⁻¹ mod r),
//
// and one side is 1 exactly when the other is. When h·c ≠ ∞, HashToG1
// clears c itself, so the first check is the equation and costs no
// cofactor walk. A check that fails is redone on HashToG1(msg): there it
// repeats the verdict, and in the case h·c = ∞ (probability about 1/r per
// message; HashToG1 then moved on to a later candidate) it is the check
// that counts. A pass with h·c = ∞ would need e(G′, σ) = 1, which no σ in
// G1 but ∞ meets — callers refuse ∞, and ParsePoint admits nothing outside
// G1.
func (s *Scheme) checkOn(key pairing.ProductTerm, msg []byte, c, sig *pairing.Point) bool {
	g, gPrime := s.prepared()
	return s.pairsToOne(gPrime, key, c, sig) || s.pairsToOne(g, key, s.HashToPoint(msg), sig)
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
