// Package bls implements Boneh–Lynn–Shacham short signatures and their
// (t, n)-threshold variant over the symmetric Type-A pairing in
// internal/tcrypto/pairing, mirroring the PBC-based construction used by
// the Cicero paper for quorum update authentication.
//
// In the threshold scheme a single group public key is installed on every
// switch while each controller holds only a Shamir share of the private
// key. A controller produces a signature share σ_i = d_i·H(m); any t
// shares combine by Lagrange interpolation in the exponent into the unique
// group signature σ = x·H(m), which verifies against the group public key
// with two pairings: e(σ, G) == e(H(m), X).
package bls

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"
	"sync"

	"cicero/internal/metrics"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/shamir"
)

// Scheme binds the signature algorithms to a pairing parameter set.
//
// A Scheme also owns the verification fast-path caches (prepared pairing
// arguments, derived share verification keys, Lagrange coefficient sets);
// it must be shared by pointer, never copied.
type Scheme struct {
	Params *pairing.Params

	// G and G′ = (h⁻¹ mod r)·G with their Miller lines, prepared together
	// on first use.
	prepOnce   sync.Once
	prepG      *pairing.PreparedPoint
	prepGPrime *pairing.PreparedPoint

	mu       sync.Mutex
	prepKeys map[string]*pairing.PreparedPoint // group/verification keys, by encoding
	shareVKs map[string]*pairing.Point         // Feldman-derived share VKs, by gk digest ‖ index
	lagrange map[string][]*big.Int             // Lagrange sets, by encoded quorum indices
}

// NewScheme returns a Scheme over the given pairing parameters.
func NewScheme(params *pairing.Params) *Scheme {
	return &Scheme{Params: params}
}

// PublicKey is a BLS public key X = x·G.
type PublicKey struct {
	Point *pairing.Point
}

// Signature is a BLS signature σ = x·H(m), a single G1 point.
type Signature struct {
	Point *pairing.Point
}

// SignatureShare is one controller's contribution σ_i = d_i·H(m).
type SignatureShare struct {
	Index uint32
	Point *pairing.Point
}

// Bytes returns the canonical encoding of the signature.
func (s Signature) Bytes(scheme *Scheme) []byte {
	return scheme.Params.PointBytes(s.Point)
}

// GroupKey is the public description of a (t, n)-threshold key: the group
// public key plus the Feldman commitments to the sharing polynomial, from
// which every share's public key can be derived.
type GroupKey struct {
	T int
	N int
	// PK is the group public key X = x·G. It equals Commitments[0].
	PK PublicKey
	// Commitments are the Feldman commitments A_j = a_j·G to the sharing
	// polynomial coefficients, enabling per-share verification keys.
	Commitments []*pairing.Point
}

// KeyShare is one controller's private share d_i = f(i) of the group key.
type KeyShare struct {
	Index  uint32
	Scalar *big.Int
}

// Errors returned by the package.
var (
	// ErrTooFewShares reports fewer signature shares than the threshold.
	ErrTooFewShares = errors.New("bls: not enough signature shares")
	// ErrDuplicateShare reports two shares with the same index.
	ErrDuplicateShare = errors.New("bls: duplicate share index")
	// ErrInvalidShare reports a signature share failing verification.
	ErrInvalidShare = errors.New("bls: invalid signature share")
)

// HashToPoint maps a message to G1 (pairing.HashToG1), paying a ladder
// walk to clear the cofactor. Signing and verifying by message do not call
// it: Sign and SignShare fold the clearing into the signing walk, and
// Verify, VerifyShare and CombineVerified pair against the uncleared point
// until a check fails. It is for the Digest forms, which take a cleared
// point, and for callers that reuse one point across many operations.
func (s *Scheme) HashToPoint(msg []byte) *pairing.Point {
	return s.Params.HashToG1(msg)
}

// Verify checks e(σ, G) == e(H(m), X) as the product
// e(G, σ)·e(X, −H(m)) == 1, tested on the uncleared hash point (checkOn).
func (s *Scheme) Verify(pk PublicKey, msg []byte, sig Signature) bool {
	if sig.Point.IsInfinity() || pk.Point.IsInfinity() {
		return false
	}
	key := pairing.ProductTerm{Prep: s.preparedKey(pk.Point)}
	return s.checkOn(key, msg, s.Params.HashToCurve(msg), sig.Point)
}

// VerifyDigest checks a signature against a pre-hashed message point.
//
// The check is the product form e(G, σ)·e(X, −H(m)) == 1 with both fixed
// first arguments (the generator and the public key) carrying precomputed
// Miller-loop lines, so the whole verification costs one shared Miller
// evaluation walk and one final exponentiation instead of two full
// pairings.
func (s *Scheme) VerifyDigest(pk PublicKey, hm *pairing.Point, sig Signature) bool {
	if sig.Point.IsInfinity() || pk.Point.IsInfinity() {
		return false
	}
	g, _ := s.prepared()
	return s.pairsToOne(g, pairing.ProductTerm{Prep: s.preparedKey(pk.Point)}, hm, sig.Point)
}

// Deal splits a fresh group key into n shares with threshold t using a
// trusted dealer; it is used at bootstrap and in tests. Production
// membership changes use the dealerless DKG in internal/tcrypto/dkg.
func (s *Scheme) Deal(rand io.Reader, t, n int) (*GroupKey, []KeyShare, error) {
	if t < 1 || t > n {
		return nil, nil, shamir.ErrThreshold
	}
	x, err := s.Params.RandomScalar(rand)
	if err != nil {
		return nil, nil, fmt.Errorf("bls: deal: %w", err)
	}
	poly, err := shamir.NewPolynomial(rand, s.Params.R, x, t)
	if err != nil {
		return nil, nil, fmt.Errorf("bls: deal: %w", err)
	}
	gk := &GroupKey{T: t, N: n, Commitments: make([]*pairing.Point, t)}
	for j, coeff := range poly.Coeffs {
		gk.Commitments[j] = s.Params.ScalarBaseMul(coeff)
	}
	gk.PK = PublicKey{Point: gk.Commitments[0]}
	shares := make([]KeyShare, n)
	for i := 1; i <= n; i++ {
		shares[i-1] = KeyShare{Index: uint32(i), Scalar: poly.Eval(uint32(i))}
	}
	return gk, shares, nil
}

// SharePublicKey derives the verification key d_i·G for share index i from
// the Feldman commitments: Σ_j A_j·i^j. Derived keys are memoized per
// (group key, index) — commitments are immutable once published, so the
// cache key is a digest of the commitment set.
func (s *Scheme) SharePublicKey(gk *GroupKey, index uint32) *pairing.Point {
	key := s.shareVKKey(gk, index)
	s.mu.Lock()
	if vk, ok := s.shareVKs[key]; ok {
		s.mu.Unlock()
		return vk
	}
	s.mu.Unlock()
	xi := new(big.Int).SetUint64(uint64(index))
	points := make([]*pairing.Point, len(gk.Commitments))
	scalars := make([]*big.Int, len(gk.Commitments))
	pow := big.NewInt(1)
	for j, commitment := range gk.Commitments {
		points[j] = commitment
		scalars[j] = pow
		pow = new(big.Int).Mul(pow, xi)
		pow.Mod(pow, s.Params.R)
	}
	vk := s.Params.MultiScalarMul(points, scalars)
	s.mu.Lock()
	if s.shareVKs == nil {
		s.shareVKs = make(map[string]*pairing.Point)
	}
	if len(s.shareVKs) >= cacheLimit {
		s.shareVKs = make(map[string]*pairing.Point)
	}
	s.shareVKs[key] = vk
	s.mu.Unlock()
	return vk
}

// SignShare produces this controller's signature share on msg in one
// ladder walk from the hash candidate (pairing.HashToG1Mul).
func (s *Scheme) SignShare(share KeyShare, msg []byte) SignatureShare {
	metrics.Crypto.SignatureBytes.Add(uint64(s.Params.PointSize()))
	return SignatureShare{Index: share.Index, Point: s.Params.HashToG1Mul(msg, share.Scalar)}
}

// SignShareDigest signs a pre-hashed message point with a key share.
func (s *Scheme) SignShareDigest(share KeyShare, hm *pairing.Point) SignatureShare {
	metrics.Crypto.SignatureBytes.Add(uint64(s.Params.PointSize()))
	return SignatureShare{Index: share.Index, Point: s.Params.ScalarMul(hm, share.Scalar)}
}

// VerifyShare checks a signature share against its derived verification
// key, e(σ_i, G) == e(H(m), d_i·G), on the uncleared hash point (checkOn).
func (s *Scheme) VerifyShare(gk *GroupKey, msg []byte, share SignatureShare) bool {
	if share.Index == 0 || share.Point.IsInfinity() {
		return false
	}
	metrics.Crypto.ShareVerifies.Add(1)
	key := pairing.ProductTerm{A: s.SharePublicKey(gk, share.Index)}
	return s.checkOn(key, msg, s.Params.HashToCurve(msg), share.Point)
}

// VerifyShareDigest checks a share against a pre-hashed message point,
// using the same prepared product form as VerifyDigest.
func (s *Scheme) VerifyShareDigest(gk *GroupKey, hm *pairing.Point, share SignatureShare) bool {
	if share.Index == 0 || share.Point.IsInfinity() {
		return false
	}
	metrics.Crypto.ShareVerifies.Add(1)
	g, _ := s.prepared()
	return s.pairsToOne(g, pairing.ProductTerm{A: s.SharePublicKey(gk, share.Index)}, hm, share.Point)
}

// Combine aggregates at least t signature shares into the group signature
// by Lagrange interpolation in the exponent. It does not verify shares;
// callers either pre-verify with VerifyShare or verify the aggregate with
// Verify (and fall back to share-level identification on failure).
func (s *Scheme) Combine(gk *GroupKey, shares []SignatureShare) (Signature, error) {
	if len(shares) < gk.T {
		return Signature{}, ErrTooFewShares
	}
	subset := shares[:gk.T]
	indices := make([]uint32, len(subset))
	seen := make(map[uint32]struct{}, len(subset))
	points := make([]*pairing.Point, len(subset))
	for i, sh := range subset {
		if _, dup := seen[sh.Index]; dup {
			return Signature{}, ErrDuplicateShare
		}
		seen[sh.Index] = struct{}{}
		indices[i] = sh.Index
		points[i] = sh.Point
	}
	lambdas, err := s.lagrangeSet(indices)
	if err != nil {
		return Signature{}, fmt.Errorf("bls: combine: %w", err)
	}
	// One interleaved multi-scalar multiplication shares the doubling
	// chain across all t terms instead of t independent exponentiations.
	return Signature{Point: s.Params.MultiScalarMul(points, lambdas)}, nil
}

// CombineVerified aggregates shares into a verified group signature. The
// pool is first deduplicated by index (duplicates would otherwise poison
// the optimistic combine even when every share is honest), then combined
// optimistically and checked against the group key on the uncleared hash
// point (checkOn) — one product pairing in the common all-honest case —
// and the combination, the one point it returns, walks the subgroup
// check. Shares may lie outside G1 (ParseShares does not walk them): the
// pairing cannot see a cofactor component, so a check that passes proves
// the combination's G1 part, and the walk refuses one that carries more.
// On failure the cofactor is cleared once, shares outside G1 or failing
// their own check are dropped with FilterVerifiedShares on the cleared
// point, and the survivors are recombined. This is the robust combine
// switches and aggregators run against potentially Byzantine controllers.
func (s *Scheme) CombineVerified(gk *GroupKey, msg []byte, shares []SignatureShare) (Signature, error) {
	return s.combineVerifiedOn(gk, msg, s.Params.HashToCurve(msg), shares)
}

// combineVerifiedOn is CombineVerified on the hash candidate c.
func (s *Scheme) combineVerifiedOn(gk *GroupKey, msg []byte, c *pairing.Point, shares []SignatureShare) (Signature, error) {
	deduped := dedupeShares(shares)
	sig, err := s.Combine(gk, deduped)
	if err != nil {
		return Signature{}, err
	}
	if !sig.Point.IsInfinity() && !gk.PK.Point.IsInfinity() {
		_, gPrime := s.prepared()
		if s.pairsToOne(gPrime, pairing.ProductTerm{Prep: s.preparedKey(gk.PK.Point)}, c, sig.Point) && s.Params.InG1(sig.Point) {
			return sig, nil
		}
	}
	// Slow path: some share in the pool is forged or outside G1, or
	// h·c = ∞ (see checkOn). Either way the pool is judged on the cleared
	// point, as a check that never saw c would judge it. The survivors are
	// all in G1, so their combination is too.
	hm := s.HashToPoint(msg)
	valid := s.FilterVerifiedShares(gk, hm, deduped)
	if len(valid) < gk.T {
		return Signature{}, ErrInvalidShare
	}
	sig, err = s.Combine(gk, valid)
	if err != nil {
		return Signature{}, err
	}
	if !s.VerifyDigest(gk.PK, hm, sig) {
		return Signature{}, ErrInvalidShare
	}
	return sig, nil
}

// ParseShares decodes a quorum pool — wire-encoded signature shares by
// share index, where a later share for an index has overwritten the
// earlier one — into shares for CombineVerified. Encodings that are not
// curve points are dropped. Shares are not walked into G1 here: only
// CombineVerified's result is, which saves a subgroup walk per share, so
// the result is for CombineVerified alone. It is in index order, so which
// shares an over-full pool combines does not depend on map iteration.
func (s *Scheme) ParseShares(pool map[uint32][]byte) []SignatureShare {
	shares := make([]SignatureShare, 0, len(pool))
	for idx, raw := range pool {
		if pt, err := s.Params.ParseCurvePoint(raw); err == nil {
			shares = append(shares, SignatureShare{Index: idx, Point: pt})
		}
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].Index < shares[j].Index })
	return shares
}

// dedupeShares drops shares whose index was already seen, keeping first
// occurrences in order.
func dedupeShares(shares []SignatureShare) []SignatureShare {
	seen := make(map[uint32]struct{}, len(shares))
	out := make([]SignatureShare, 0, len(shares))
	for _, sh := range shares {
		if _, dup := seen[sh.Index]; dup {
			continue
		}
		seen[sh.Index] = struct{}{}
		out = append(out, sh)
	}
	return out
}
