package bls

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"testing"

	"cicero/internal/tcrypto/pairing"
)

func testScheme() *Scheme { return NewScheme(pairing.Fast254()) }

func TestSignVerify(t *testing.T) {
	s := testScheme()
	sk, pk, err := s.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	msg := []byte("flow-mod s3: dst=h7 -> output:2")
	sig := s.Sign(sk, msg)
	if !s.Verify(pk, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if s.Verify(pk, []byte("other message"), sig) {
		t.Fatal("signature verified for wrong message")
	}
	_, otherPK, _ := s.GenerateKey(rand.Reader)
	if s.Verify(otherPK, msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestVerifyRejectsInfinity(t *testing.T) {
	s := testScheme()
	_, pk, _ := s.GenerateKey(rand.Reader)
	if s.Verify(pk, []byte("m"), Signature{Point: pairing.Infinity()}) {
		t.Fatal("identity-point signature must be rejected")
	}
}

func TestThresholdRoundTrip(t *testing.T) {
	s := testScheme()
	const threshold, n = 3, 4
	gk, shares, err := s.Deal(rand.Reader, threshold, n)
	if err != nil {
		t.Fatalf("Deal: %v", err)
	}
	msg := []byte("update u42")
	sigShares := make([]SignatureShare, n)
	for i, ks := range shares {
		sigShares[i] = s.SignShare(ks, msg)
		if !s.VerifyShare(gk, msg, sigShares[i]) {
			t.Fatalf("share %d failed verification", ks.Index)
		}
	}
	// Any threshold-sized subset combines to the same valid signature.
	ref, err := s.Combine(gk, sigShares[:threshold])
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if !s.Verify(gk.PK, msg, ref) {
		t.Fatal("combined signature invalid")
	}
	other, err := s.Combine(gk, sigShares[1:1+threshold])
	if err != nil {
		t.Fatalf("Combine subset 2: %v", err)
	}
	if !other.Point.Equal(ref.Point) {
		t.Fatal("different share subsets produced different group signatures")
	}
}

func TestSubThresholdCannotForge(t *testing.T) {
	s := testScheme()
	gk, shares, err := s.Deal(rand.Reader, 3, 4)
	if err != nil {
		t.Fatalf("Deal: %v", err)
	}
	msg := []byte("malicious update")
	if _, err := s.Combine(gk, []SignatureShare{
		s.SignShare(shares[0], msg),
		s.SignShare(shares[1], msg),
	}); err != ErrTooFewShares {
		t.Fatalf("expected ErrTooFewShares, got %v", err)
	}
	// Two colluding controllers duplicating a share must also fail.
	dup := []SignatureShare{
		s.SignShare(shares[0], msg),
		s.SignShare(shares[1], msg),
		s.SignShare(shares[1], msg),
	}
	if _, err := s.Combine(gk, dup); err != ErrDuplicateShare {
		t.Fatalf("expected ErrDuplicateShare, got %v", err)
	}
}

func TestTamperedShareDetected(t *testing.T) {
	s := testScheme()
	gk, shares, err := s.Deal(rand.Reader, 3, 4)
	if err != nil {
		t.Fatalf("Deal: %v", err)
	}
	msg := []byte("update u7")
	good := []SignatureShare{
		s.SignShare(shares[0], msg),
		s.SignShare(shares[1], msg),
		s.SignShare(shares[2], msg),
	}
	// A Byzantine controller signs a different message but claims it is
	// a share for msg.
	evil := s.SignShare(shares[2], []byte("drop all firewall rules"))
	if s.VerifyShare(gk, msg, evil) {
		t.Fatal("tampered share passed verification")
	}
	bad := []SignatureShare{good[0], good[1], evil}
	sig, err := s.Combine(gk, bad)
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if s.Verify(gk.PK, msg, sig) {
		t.Fatal("aggregate with tampered share verified")
	}
}

func TestCombineVerifiedFiltersBadShares(t *testing.T) {
	s := testScheme()
	gk, shares, err := s.Deal(rand.Reader, 3, 5)
	if err != nil {
		t.Fatalf("Deal: %v", err)
	}
	msg := []byte("update u9")
	evil := s.SignShare(shares[0], []byte("forged"))
	mixed := []SignatureShare{
		evil,
		s.SignShare(shares[1], msg),
		s.SignShare(shares[2], msg),
		s.SignShare(shares[3], msg),
	}
	sig, err := s.CombineVerified(gk, msg, mixed)
	if err != nil {
		t.Fatalf("CombineVerified: %v", err)
	}
	if !s.Verify(gk.PK, msg, sig) {
		t.Fatal("filtered aggregate invalid")
	}
	// With only t-1 honest shares it must fail.
	tooFew := []SignatureShare{
		evil,
		s.SignShare(shares[1], msg),
		s.SignShare(shares[2], msg),
	}
	if _, err := s.CombineVerified(gk, msg, tooFew); err == nil {
		t.Fatal("expected failure with only t-1 honest shares")
	}
}

// TestParseSharesDropsGarbageInIndexOrder feeds ParseShares a wire pool
// with an unparsable entry; the rest must come back in index order and
// combine into the group signature.
func TestParseSharesDropsGarbageInIndexOrder(t *testing.T) {
	s := testScheme()
	gk, shares, err := s.Deal(rand.Reader, 2, 4)
	if err != nil {
		t.Fatalf("Deal: %v", err)
	}
	msg := []byte("update u10")
	pool := map[uint32][]byte{2: []byte("not a point")}
	for _, i := range []int{3, 0, 2} {
		pool[shares[i].Index] = s.Params.PointBytes(s.SignShare(shares[i], msg).Point)
	}
	got := s.ParseShares(pool)
	if len(got) != 3 || got[0].Index != 1 || got[1].Index != 3 || got[2].Index != 4 {
		t.Fatalf("parsed %v, want indices 1, 3, 4", got)
	}
	if _, err := s.CombineVerified(gk, msg, got); err != nil {
		t.Fatalf("CombineVerified over the parsed pool: %v", err)
	}
}

func TestSharePublicKeyMatchesScalar(t *testing.T) {
	s := testScheme()
	gk, shares, err := s.Deal(rand.Reader, 2, 3)
	if err != nil {
		t.Fatalf("Deal: %v", err)
	}
	for _, ks := range shares {
		want := s.Params.ScalarBaseMul(ks.Scalar)
		got := s.SharePublicKey(gk, ks.Index)
		if !got.Equal(want) {
			t.Fatalf("share %d: derived verification key mismatch", ks.Index)
		}
	}
}

func TestDealThresholdValidation(t *testing.T) {
	s := testScheme()
	if _, _, err := s.Deal(rand.Reader, 0, 3); err == nil {
		t.Error("t=0 accepted")
	}
	if _, _, err := s.Deal(rand.Reader, 4, 3); err == nil {
		t.Error("t>n accepted")
	}
}

func TestQuorumSizesMatchPaper(t *testing.T) {
	// The paper sets t = floor((n-1)/3)+1 and requires n >= 4.
	for _, tc := range []struct{ n, t int }{{4, 2}, {7, 3}, {10, 4}} {
		s := testScheme()
		gk, shares, err := s.Deal(rand.Reader, tc.t, tc.n)
		if err != nil {
			t.Fatalf("Deal(%d,%d): %v", tc.t, tc.n, err)
		}
		msg := []byte("m")
		sigShares := make([]SignatureShare, tc.t)
		for i := 0; i < tc.t; i++ {
			sigShares[i] = s.SignShare(shares[i], msg)
		}
		sig, err := s.Combine(gk, sigShares)
		if err != nil {
			t.Fatalf("Combine: %v", err)
		}
		if !s.Verify(gk.PK, msg, sig) {
			t.Fatalf("(t=%d, n=%d) aggregate failed", tc.t, tc.n)
		}
	}
}

func BenchmarkSignShare(b *testing.B) {
	s := testScheme()
	_, shares, _ := s.Deal(rand.Reader, 3, 4)
	hm := s.HashToPoint([]byte("msg"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SignShareDigest(shares[0], hm)
	}
}

func BenchmarkCombine(b *testing.B) {
	s := testScheme()
	gk, shares, _ := s.Deal(rand.Reader, 3, 4)
	msg := []byte("msg")
	sigShares := []SignatureShare{
		s.SignShare(shares[0], msg),
		s.SignShare(shares[1], msg),
		s.SignShare(shares[2], msg),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Combine(gk, sigShares); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyAggregate(b *testing.B) {
	s := testScheme()
	gk, shares, _ := s.Deal(rand.Reader, 3, 4)
	msg := []byte("msg")
	sigShares := []SignatureShare{
		s.SignShare(shares[0], msg),
		s.SignShare(shares[1], msg),
		s.SignShare(shares[2], msg),
	}
	sig, _ := s.Combine(gk, sigShares)
	hm := s.HashToPoint(msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.VerifyDigest(gk.PK, hm, sig) {
			b.Fatal("verify failed")
		}
	}
}

var benchSink *big.Int

func BenchmarkLagrangeScalar(b *testing.B) {
	// Micro-benchmark of the interpolation weight computation alone.
	s := testScheme()
	for i := 0; i < b.N; i++ {
		x := new(big.Int).Exp(big.NewInt(3), big.NewInt(100), s.Params.R)
		benchSink = x
	}
}

// PrivateKey is a full BLS private key x, the single-key signer the tests
// check threshold signatures against.
type PrivateKey struct {
	Scalar *big.Int
}

// Sign produces σ = x·H(m) in one ladder walk from the hash candidate
// (pairing.HashToG1Mul): a single-key signature, the reference the
// threshold shares are checked against.
func (s *Scheme) Sign(sk PrivateKey, msg []byte) Signature {
	return Signature{Point: s.Params.HashToG1Mul(msg, sk.Scalar)}
}

// GenerateKey samples a fresh full key pair.
func (s *Scheme) GenerateKey(rand io.Reader) (PrivateKey, PublicKey, error) {
	x, err := s.Params.RandomScalar(rand)
	if err != nil {
		return PrivateKey{}, PublicKey{}, fmt.Errorf("bls: generate key: %w", err)
	}
	return PrivateKey{Scalar: x}, PublicKey{Point: s.Params.ScalarBaseMul(x)}, nil
}
