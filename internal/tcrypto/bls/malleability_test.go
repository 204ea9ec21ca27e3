package bls

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

// Regression for signature malleability through the cofactor subgroup.
// The reduced Tate pairing is trivial on r·E(F_p), so for a valid σ and
// any T = r·Q ≠ ∞ the point σ + T satisfies the verification equation
// too while encoding differently. ParsePoint used to let it in (it only
// checked curve membership), and VerifyCached(σ+T) followed by
// VerifyCached(σ) then returned true, false: the cache's "a BLS signature
// is unique" rule rejected the honest signature. The mauled points are
// built here with plain big.Int affine arithmetic, independent of the
// pairing package's own.

type affinePoint struct{ x, y *big.Int } // nil x: infinity

// affineAdd adds two points of y² = x³ + x over F_p.
func affineAdd(p *big.Int, a, b affinePoint) affinePoint {
	if a.x == nil {
		return b
	}
	if b.x == nil {
		return a
	}
	var num, den *big.Int
	if a.x.Cmp(b.x) == 0 {
		if new(big.Int).Mod(new(big.Int).Add(a.y, b.y), p).Sign() == 0 {
			return affinePoint{}
		}
		num = new(big.Int).Mul(a.x, a.x)
		num.Mul(num, big.NewInt(3)).Add(num, big.NewInt(1))
		den = new(big.Int).Lsh(a.y, 1)
	} else {
		num = new(big.Int).Sub(b.y, a.y)
		den = new(big.Int).Sub(b.x, a.x)
	}
	lambda := num.Mul(num, den.ModInverse(den.Mod(den, p), p))
	lambda.Mod(lambda, p)
	x3 := new(big.Int).Mul(lambda, lambda)
	x3.Sub(x3, a.x).Sub(x3, b.x).Mod(x3, p)
	y3 := new(big.Int).Sub(a.x, x3)
	y3.Mul(y3, lambda).Sub(y3, a.y).Mod(y3, p)
	return affinePoint{x3, y3}
}

// cofactorPoint returns T = r·Q ≠ ∞ for the first curve point Q with
// x ≥ start.
func cofactorPoint(s *Scheme, start int64) affinePoint {
	p := s.Params.P
	exp := new(big.Int).Add(p, big.NewInt(1))
	exp.Rsh(exp, 2)
	for x := big.NewInt(start); ; x.Add(x, big.NewInt(1)) {
		y2 := new(big.Int).Mul(x, x)
		y2.Mul(y2, x).Add(y2, x).Mod(y2, p)
		y := new(big.Int).Exp(y2, exp, p)
		if new(big.Int).Exp(y, big.NewInt(2), p).Cmp(y2) != 0 {
			continue
		}
		if t := affineMul(p, affinePoint{new(big.Int).Set(x), y}, s.Params.R); t.x != nil {
			return t
		}
	}
}

// affineMul returns k·pt by double-and-add; k is not reduced.
func affineMul(p *big.Int, pt affinePoint, k *big.Int) affinePoint {
	acc := affinePoint{}
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = affineAdd(p, acc, acc)
		if k.Bit(i) == 1 {
			acc = affineAdd(p, acc, pt)
		}
	}
	return acc
}

// affineOf reads a finite point back out of its encoding.
func affineOf(enc []byte) affinePoint {
	w := (len(enc) - 1) / 2
	return affinePoint{new(big.Int).SetBytes(enc[1 : 1+w]), new(big.Int).SetBytes(enc[1+w:])}
}

// affineBytes encodes a finite point as PointBytes does.
func affineBytes(s *Scheme, pt affinePoint) []byte {
	out := make([]byte, s.Params.PointSize())
	w := (len(out) - 1) / 2
	out[0] = 4
	pt.x.FillBytes(out[1 : 1+w])
	pt.y.FillBytes(out[1+w:])
	return out
}

// maul returns the encoding of the point encoded in enc plus t.
func maul(s *Scheme, enc []byte, t affinePoint) []byte {
	return affineBytes(s, affineAdd(s.Params.P, affineOf(enc), t))
}

func TestMauledSignatureDoesNotParse(t *testing.T) {
	s := testScheme()
	gk, shares, err := s.Deal(rand.Reader, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("update u42")
	sig, err := s.CombineVerified(gk, msg, []SignatureShare{s.SignShare(shares[0], msg), s.SignShare(shares[2], msg)})
	if err != nil {
		t.Fatal(err)
	}
	honest := sig.Bytes(s)

	mauled := maul(s, honest, cofactorPoint(s, 2))
	if bytes.Equal(mauled, honest) {
		t.Fatal("mauled encoding equals the honest one")
	}
	if pt, err := s.Params.ParsePoint(mauled); err == nil {
		// What the bug allowed, spelled out for whoever sees this fail.
		cache := NewVerifyCache(4)
		forged := Signature{Point: pt}
		t.Fatalf("σ+T parsed: Verify = %v, VerifyCached(σ+T) then VerifyCached(σ) = %v, %v",
			s.Verify(gk.PK, msg, forged),
			s.VerifyCached(cache, gk.PK, msg, forged),
			s.VerifyCached(cache, gk.PK, msg, sig))
	}

	// A Byzantine controller's share σᵢ+Tᵢ would survive Lagrange
	// combining the same way; it does not parse either.
	share := s.SignShare(shares[1], msg)
	if _, err := s.Params.ParsePoint(maul(s, s.Params.PointBytes(share.Point), cofactorPoint(s, 1000))); err == nil {
		t.Fatal("mauled signature share parsed")
	}

	// With only G1 points able to enter, a cached verdict never turns
	// against the honest signature.
	cache := NewVerifyCache(4)
	reparsed, err := s.Params.ParsePoint(honest)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !s.VerifyCached(cache, gk.PK, msg, Signature{Point: reparsed}) {
			t.Fatalf("honest signature rejected on VerifyCached call %d", i+1)
		}
	}
}
