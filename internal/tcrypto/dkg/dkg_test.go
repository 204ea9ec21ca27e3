package dkg

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/pairing"
)

func testScheme() *bls.Scheme { return bls.NewScheme(pairing.Fast254()) }

func TestRunProducesWorkingThresholdKey(t *testing.T) {
	s := testScheme()
	const threshold, n = 2, 4
	gk, shares, err := Run(s, rand.Reader, threshold, n)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gk.T != threshold || gk.N != n {
		t.Fatalf("group key (t=%d, n=%d), want (%d, %d)", gk.T, gk.N, threshold, n)
	}
	msg := []byte("dkg-generated update")
	sigShares := []bls.SignatureShare{
		s.SignShare(shares[1], msg),
		s.SignShare(shares[3], msg),
	}
	sig, err := s.Combine(gk, sigShares)
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if !s.Verify(gk.PK, msg, sig) {
		t.Fatal("signature from DKG shares failed to verify")
	}
}

func TestSharePublicKeysConsistent(t *testing.T) {
	s := testScheme()
	gk, shares, err := Run(s, rand.Reader, 3, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, share := range shares {
		want := s.Params.ScalarBaseMul(share.Scalar)
		got := s.SharePublicKey(gk, share.Index)
		if !got.Equal(want) {
			t.Fatalf("participant %d: verification key mismatch", share.Index)
		}
	}
}

func TestNoParticipantKnowsGroupSecret(t *testing.T) {
	s := testScheme()
	gk, shares, err := Run(s, rand.Reader, 3, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// No single share scalar is the group secret: the share's public point
	// must differ from the group public key.
	for _, share := range shares {
		if s.Params.ScalarBaseMul(share.Scalar).Equal(gk.PK.Point) {
			t.Fatalf("participant %d's share IS the group secret", share.Index)
		}
	}
}

func TestHandleSubShareDetectsBadDealer(t *testing.T) {
	s := testScheme()
	honest, err := NewParticipant(s, 1, 2, 3)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	if _, _, err := honest.Start(rand.Reader); err != nil {
		t.Fatalf("Start: %v", err)
	}
	evil, err := NewParticipant(s, 2, 2, 3)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	deal, subShares, err := evil.Start(rand.Reader)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := honest.HandleDeal(deal); err != nil {
		t.Fatalf("HandleDeal: %v", err)
	}
	// Corrupt the sub-share destined for participant 1.
	bad := subShares[0]
	bad.Value = new(big.Int).Add(bad.Value, big.NewInt(1))
	if err := honest.HandleSubShare(bad); !errors.Is(err, ErrInvalidSubShare) {
		t.Fatalf("expected ErrInvalidSubShare, got %v", err)
	}
}

func TestHandleSubShareRouting(t *testing.T) {
	s := testScheme()
	p, _ := NewParticipant(s, 1, 2, 3)
	if _, _, err := p.Start(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if err := p.HandleSubShare(SubShare{Dealer: 2, Recipient: 3, Value: big.NewInt(1)}); !errors.Is(err, ErrWrongRecipient) {
		t.Errorf("expected ErrWrongRecipient, got %v", err)
	}
	if err := p.HandleSubShare(SubShare{Dealer: 9, Recipient: 1, Value: big.NewInt(1)}); !errors.Is(err, ErrUnknownDealer) {
		t.Errorf("expected ErrUnknownDealer, got %v", err)
	}
}

func TestFinalizeRequiresQuorumOfDealers(t *testing.T) {
	s := testScheme()
	p, _ := NewParticipant(s, 1, 3, 4)
	if _, _, err := p.Start(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Finalize([]uint32{1}); !errors.Is(err, ErrTooFewDealers) {
		t.Errorf("expected ErrTooFewDealers, got %v", err)
	}
}

func TestResharePreservesPublicKey(t *testing.T) {
	s := testScheme()
	gk, shares, err := Run(s, rand.Reader, 2, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Grow the control plane: 4 -> 5 members, threshold 2 (paper: add
	// controller triggers DKG with new quorum size).
	newGK, newShares, err := RunReshare(s, rand.Reader, gk, shares, 2, 5)
	if err != nil {
		t.Fatalf("RunReshare: %v", err)
	}
	if !newGK.PK.Point.Equal(gk.PK.Point) {
		t.Fatal("reshare changed the group public key")
	}
	if newGK.N != 5 || len(newShares) != 5 {
		t.Fatalf("expected 5 new shares, got %d", len(newShares))
	}
	// New shares sign; signature verifies under the ORIGINAL public key.
	msg := []byte("post-reshare update")
	sig, err := s.Combine(newGK, []bls.SignatureShare{
		s.SignShare(newShares[0], msg),
		s.SignShare(newShares[4], msg),
	})
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if !s.Verify(gk.PK, msg, sig) {
		t.Fatal("post-reshare signature failed under original public key")
	}
}

func TestReshareShrinkAndThresholdChange(t *testing.T) {
	s := testScheme()
	gk, shares, err := Run(s, rand.Reader, 2, 5)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Remove a controller: 5 -> 4 members, threshold 2.
	newGK, newShares, err := RunReshare(s, rand.Reader, gk, shares, 2, 4)
	if err != nil {
		t.Fatalf("RunReshare: %v", err)
	}
	if !newGK.PK.Point.Equal(gk.PK.Point) {
		t.Fatal("shrinking reshare changed the public key")
	}
	msg := []byte("m")
	sig, err := s.Combine(newGK, []bls.SignatureShare{
		s.SignShare(newShares[1], msg),
		s.SignShare(newShares[2], msg),
	})
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if !s.Verify(gk.PK, msg, sig) {
		t.Fatal("signature after shrink failed")
	}
}

func TestOldSharesUselessAfterReshareWithNewThreshold(t *testing.T) {
	s := testScheme()
	gk, shares, err := Run(s, rand.Reader, 2, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	newGK, newShares, err := RunReshare(s, rand.Reader, gk, shares, 3, 5)
	if err != nil {
		t.Fatalf("RunReshare: %v", err)
	}
	// Mixing an old share with new shares must not produce a valid
	// signature: old and new polynomials are unrelated.
	msg := []byte("m")
	mixed := []bls.SignatureShare{
		s.SignShare(newShares[0], msg),
		s.SignShare(newShares[1], msg),
		s.SignShare(bls.KeyShare{Index: 3, Scalar: shares[2].Scalar}, msg),
	}
	sig, err := s.Combine(newGK, mixed)
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if s.Verify(gk.PK, msg, sig) {
		t.Fatal("stale share combined into a valid new-epoch signature")
	}
}

func TestVerifyReshareDealRejectsForgery(t *testing.T) {
	s := testScheme()
	gk, shares, err := Run(s, rand.Reader, 2, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	dealerSet := []uint32{shares[0].Index, shares[1].Index}
	// A Byzantine dealer tries to reshare a secret of its own choosing
	// instead of its Lagrange-weighted old share.
	forgedShare := bls.KeyShare{Index: shares[0].Index, Scalar: big.NewInt(777)}
	deal, _, err := ReshareDealer(s, rand.Reader, forgedShare, dealerSet, 2, []uint32{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("ReshareDealer: %v", err)
	}
	if err := VerifyReshareDeal(s, gk, deal); !errors.Is(err, ErrBadReshareDeal) {
		t.Fatalf("expected ErrBadReshareDeal, got %v", err)
	}
}

func TestRepeatedResharesKeepKeyStable(t *testing.T) {
	s := testScheme()
	gk, shares, err := Run(s, rand.Reader, 2, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	originalPK := gk.PK.Point
	// Simulate a churny control plane: several successive membership
	// changes (the paper's add/remove flow increments a phase each time).
	sizes := []struct{ t, n int }{{2, 5}, {3, 7}, {2, 4}, {2, 6}}
	for _, size := range sizes {
		gk, shares, err = RunReshare(s, rand.Reader, gk, shares, size.t, size.n)
		if err != nil {
			t.Fatalf("RunReshare(%d,%d): %v", size.t, size.n, err)
		}
		if !gk.PK.Point.Equal(originalPK) {
			t.Fatalf("public key drifted at (t=%d, n=%d)", size.t, size.n)
		}
	}
	msg := []byte("final epoch update")
	sig, err := s.Combine(gk, []bls.SignatureShare{
		s.SignShare(shares[0], msg),
		s.SignShare(shares[3], msg),
	})
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if !s.Verify(bls.PublicKey{Point: originalPK}, msg, sig) {
		t.Fatal("signature after 4 reshares failed under original key")
	}
}

func BenchmarkDKGRun4(b *testing.B) {
	s := testScheme()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(s, rand.Reader, 2, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReshare4to5(b *testing.B) {
	s := testScheme()
	gk, shares, err := Run(s, rand.Reader, 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunReshare(s, rand.Reader, gk, shares, 2, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSubShareWithoutValueIsRejected is the handler half of the
// reshare-sub crash: a sub-share whose Value never arrived (the simulator
// passes Go values, so no decoder stands in front of this call) used to
// reach ScalarBaseMul(nil) and take the process down.
func TestSubShareWithoutValueIsRejected(t *testing.T) {
	s := testScheme()
	gk, shares, err := Run(s, rand.Reader, 2, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	dealerSet := []uint32{shares[0].Index, shares[1].Index}
	deal, subs, err := ReshareDealer(s, rand.Reader, shares[0], dealerSet, 2, []uint32{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("ReshareDealer: %v", err)
	}
	recv, err := NewReshareReceiver(s, gk, 1, 2, 4)
	if err != nil {
		t.Fatalf("NewReshareReceiver: %v", err)
	}
	if err := recv.HandleDeal(deal); err != nil {
		t.Fatalf("HandleDeal: %v", err)
	}
	empty := SubShare{Dealer: subs[0].Dealer, Recipient: 1}
	if err := recv.HandleSubShare(empty); !errors.Is(err, ErrInvalidSubShare) {
		t.Fatalf("reshare receiver: expected ErrInvalidSubShare, got %v", err)
	}
	if err := recv.HandleSubShare(subs[0]); err != nil {
		t.Fatalf("the honest sub-share after the empty one: %v", err)
	}

	p, err := NewParticipant(s, 1, 2, 3)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	own, _, err := p.Start(rand.Reader)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := p.HandleSubShare(SubShare{Dealer: own.Dealer, Recipient: 1}); !errors.Is(err, ErrInvalidSubShare) {
		t.Fatalf("dkg participant: expected ErrInvalidSubShare, got %v", err)
	}
}
