// Package dkg implements dealerless distributed key generation and
// proactive resharing for the BLS threshold scheme, following the
// Joint-Feldman construction ("Distributed Key Generation in the Wild",
// Kate, Huang & Goldberg — the library the Cicero paper uses).
//
// Every controller acts as a sub-dealer: it deals a random polynomial to
// the group, broadcasts Feldman commitments, and sends each peer a private
// sub-share. Each participant's key share is the sum of the sub-shares it
// received from qualified dealers, and the group public key is the sum of
// the dealers' constant-term commitments — no single party ever learns the
// group private key.
//
// Resharing (used on every control-plane membership change, Fig. 8 of the
// paper) re-deals existing shares to a new group with a possibly different
// threshold while keeping the group public key fixed, so switches never
// need a key redistribution.
//
// The protocol is exposed as explicit per-participant state machines
// (Participant, ReshareDealer/ReshareReceiver) whose round inputs/outputs
// the caller transports — Cicero drives them over its atomic broadcast —
// plus in-memory orchestrators (Run, RunReshare) for bootstrap and tests.
package dkg

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/shamir"
)

// Errors returned by the package.
var (
	// ErrInvalidSubShare reports a sub-share inconsistent with its dealer's
	// Feldman commitments.
	ErrInvalidSubShare = errors.New("dkg: sub-share fails commitment check")
	// ErrTooFewDealers reports that complaints disqualified so many dealers
	// that the protocol cannot complete safely.
	ErrTooFewDealers = errors.New("dkg: not enough qualified dealers")
	// ErrWrongRecipient reports a sub-share addressed to another participant.
	ErrWrongRecipient = errors.New("dkg: sub-share for a different recipient")
	// ErrUnknownDealer reports a sub-share from a dealer that never
	// announced commitments.
	ErrUnknownDealer = errors.New("dkg: sub-share from unknown dealer")
)

// Deal is a dealer's public broadcast: its Feldman commitments.
type Deal struct {
	Dealer      uint32
	Commitments []*pairing.Point
}

// SubShare is a dealer's private message to one participant. A sub-share
// without a value is malformed: the wire codec refuses to carry one and
// the receivers refuse to verify one.
type SubShare struct {
	Dealer    uint32
	Recipient uint32
	Value     *big.Int `wire:"required"`
}

// Participant is one controller's DKG state machine. Create it with
// NewParticipant, transport the outputs of Start to all peers, feed peer
// messages to HandleDeal/HandleSubShare, then call Finalize with the
// qualified dealer set agreed via the surrounding consensus.
type Participant struct {
	scheme *bls.Scheme
	self   uint32
	t      int
	n      int

	poly      *shamir.Polynomial
	deals     map[uint32]*Deal
	subShares map[uint32]*big.Int // accepted sub-share values by dealer
}

// NewParticipant creates the state machine for participant self (1-based)
// in an (t, n) generation.
func NewParticipant(scheme *bls.Scheme, self uint32, t, n int) (*Participant, error) {
	if t < 1 || t > n {
		return nil, shamir.ErrThreshold
	}
	if self == 0 || int(self) > n {
		return nil, fmt.Errorf("dkg: participant index %d out of range 1..%d", self, n)
	}
	return &Participant{
		scheme:    scheme,
		self:      self,
		t:         t,
		n:         n,
		deals:     make(map[uint32]*Deal),
		subShares: make(map[uint32]*big.Int),
	}, nil
}

// Start samples this participant's dealing polynomial and returns the
// broadcast Deal plus one private SubShare per participant (including one
// to itself, which is consumed internally).
func (p *Participant) Start(rand io.Reader) (*Deal, []SubShare, error) {
	secret, err := p.scheme.Params.RandomScalar(rand)
	if err != nil {
		return nil, nil, fmt.Errorf("dkg: sample dealing secret: %w", err)
	}
	poly, err := shamir.NewPolynomial(rand, p.scheme.Params.R, secret, p.t)
	if err != nil {
		return nil, nil, fmt.Errorf("dkg: sample dealing polynomial: %w", err)
	}
	p.poly = poly
	deal := &Deal{Dealer: p.self, Commitments: make([]*pairing.Point, p.t)}
	for j, coeff := range poly.Coeffs {
		deal.Commitments[j] = p.scheme.Params.ScalarBaseMul(coeff)
	}
	shares := make([]SubShare, 0, p.n)
	for i := 1; i <= p.n; i++ {
		shares = append(shares, SubShare{
			Dealer:    p.self,
			Recipient: uint32(i),
			Value:     poly.Eval(uint32(i)),
		})
	}
	// Register our own deal and sub-share.
	p.deals[p.self] = deal
	p.subShares[p.self] = poly.Eval(p.self)
	return deal, shares, nil
}

// HandleDeal records a peer dealer's commitments.
func (p *Participant) HandleDeal(deal *Deal) error {
	if len(deal.Commitments) != p.t {
		return fmt.Errorf("dkg: dealer %d sent %d commitments, want %d",
			deal.Dealer, len(deal.Commitments), p.t)
	}
	p.deals[deal.Dealer] = deal
	return nil
}

// HandleSubShare verifies a private sub-share against the dealer's
// commitments. On inconsistency it returns ErrInvalidSubShare; the caller
// leaves the dealer out of the qualified set.
func (p *Participant) HandleSubShare(ss SubShare) error {
	if ss.Recipient != p.self {
		return ErrWrongRecipient
	}
	deal, ok := p.deals[ss.Dealer]
	if !ok {
		return ErrUnknownDealer
	}
	if !verifySubShare(p.scheme, deal.Commitments, p.self, ss.Value) {
		return ErrInvalidSubShare
	}
	p.subShares[ss.Dealer] = new(big.Int).Set(ss.Value)
	return nil
}

// Finalize combines the sub-shares of the qualified dealers into this
// participant's key share and the group key. All correct participants must
// pass the same qualified set (agreed through the atomic broadcast that
// carries deals and complaints).
func (p *Participant) Finalize(qualified []uint32) (bls.KeyShare, *bls.GroupKey, error) {
	if len(qualified) < p.t {
		return bls.KeyShare{}, nil, ErrTooFewDealers
	}
	sorted := append([]uint32(nil), qualified...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	shareVal := new(big.Int)
	commitments := make([]*pairing.Point, p.t)
	for j := range commitments {
		commitments[j] = pairing.Infinity()
	}
	for _, dealer := range sorted {
		deal, ok := p.deals[dealer]
		if !ok {
			return bls.KeyShare{}, nil, fmt.Errorf("dkg: missing deal from qualified dealer %d", dealer)
		}
		sub, ok := p.subShares[dealer]
		if !ok {
			return bls.KeyShare{}, nil, fmt.Errorf("dkg: missing sub-share from qualified dealer %d", dealer)
		}
		shareVal.Add(shareVal, sub)
		shareVal.Mod(shareVal, p.scheme.Params.R)
		for j := range commitments {
			commitments[j] = p.scheme.Params.Add(commitments[j], deal.Commitments[j])
		}
	}
	gk := &bls.GroupKey{
		T:           p.t,
		N:           p.n,
		PK:          bls.PublicKey{Point: commitments[0]},
		Commitments: commitments,
	}
	return bls.KeyShare{Index: p.self, Scalar: shareVal}, gk, nil
}

// verifySubShare checks value·G == Σ_j commitments[j]·index^j. A sub-share
// without a value verifies against nothing: callers reach here with
// whatever a peer sent.
func verifySubShare(scheme *bls.Scheme, commitments []*pairing.Point, index uint32, value *big.Int) bool {
	if value == nil {
		return false
	}
	left := scheme.Params.ScalarBaseMul(value)
	right := evalCommitments(scheme, commitments, index)
	return left.Equal(right)
}

// evalCommitments evaluates the committed polynomial "in the exponent" at
// the given index.
func evalCommitments(scheme *bls.Scheme, commitments []*pairing.Point, index uint32) *pairing.Point {
	acc := pairing.Infinity()
	xi := new(big.Int).SetUint64(uint64(index))
	pow := big.NewInt(1)
	for _, c := range commitments {
		acc = scheme.Params.Add(acc, scheme.Params.ScalarMul(c, pow))
		pow = new(big.Int).Mul(pow, xi)
		pow.Mod(pow, scheme.Params.R)
	}
	return acc
}

// Run executes a full DKG among n in-memory participants and returns the
// group key and every participant's share. It is the bootstrap/testing
// convenience; the distributed protocol uses the Participant state machine
// directly.
func Run(scheme *bls.Scheme, rand io.Reader, t, n int) (*bls.GroupKey, []bls.KeyShare, error) {
	participants := make([]*Participant, n)
	for i := range participants {
		p, err := NewParticipant(scheme, uint32(i+1), t, n)
		if err != nil {
			return nil, nil, err
		}
		participants[i] = p
	}
	deals := make([]*Deal, n)
	subShares := make([][]SubShare, n)
	for i, p := range participants {
		deal, shares, err := p.Start(rand)
		if err != nil {
			return nil, nil, err
		}
		deals[i] = deal
		subShares[i] = shares
	}
	qualified := make([]uint32, 0, n)
	for i := range participants {
		qualified = append(qualified, uint32(i+1))
	}
	for i, p := range participants {
		for j, deal := range deals {
			if i == j {
				continue
			}
			if err := p.HandleDeal(deal); err != nil {
				return nil, nil, err
			}
		}
		for j := range participants {
			if i == j {
				continue
			}
			if err := p.HandleSubShare(subShares[j][i]); err != nil {
				return nil, nil, err
			}
		}
	}
	shares := make([]bls.KeyShare, n)
	var gk *bls.GroupKey
	for i, p := range participants {
		share, pk, err := p.Finalize(qualified)
		if err != nil {
			return nil, nil, err
		}
		shares[i] = share
		if gk == nil {
			gk = pk
		} else if !gk.PK.Point.Equal(pk.PK.Point) {
			return nil, nil, errors.New("dkg: participants derived different group keys")
		}
	}
	return gk, shares, nil
}
