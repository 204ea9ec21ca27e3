package bls

import (
	"bytes"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
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
	for x := big.NewInt(start); ; x.Add(x, big.NewInt(1)) {
		if q, ok := lift(p, x); ok {
			if t := affineMul(p, q, s.Params.R); t.x != nil {
				return t
			}
		}
	}
}

// lift returns the curve point with x-coordinate x, if x³ + x is a square.
func lift(p, x *big.Int) (affinePoint, bool) {
	exp := new(big.Int).Add(p, big.NewInt(1))
	exp.Rsh(exp, 2)
	y2 := new(big.Int).Mul(x, x)
	y2.Mul(y2, x).Add(y2, x).Mod(y2, p)
	y := new(big.Int).Exp(y2, exp, p)
	return affinePoint{new(big.Int).Set(x), y}, new(big.Int).Exp(y, big.NewInt(2), p).Cmp(y2) == 0
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

// TestMauledShareInPoolIsNeverReturned lets the mauled share in where
// ParseShares admits it: the pool's shares are curve points, walked into
// G1 only as the combination CombineVerified returns. A pool of one honest
// and one mauled share combines to σ + λ·T, which passes the pairing
// check and fails the walk; the slow path then drops the mauled share and
// is a share short. Once an honest third share arrives the pool completes
// with the honest signature, byte for byte.
func TestMauledShareInPoolIsNeverReturned(t *testing.T) {
	s := testScheme()
	gk, shares, err := s.Deal(rand.Reader, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("update u43")
	enc := func(i int) []byte { return s.Params.PointBytes(s.SignShare(shares[i], msg).Point) }
	honest, err := s.Combine(gk, []SignatureShare{s.SignShare(shares[0], msg), s.SignShare(shares[2], msg)})
	if err != nil {
		t.Fatal(err)
	}

	pool := map[uint32][]byte{1: enc(0), 2: maul(s, enc(1), cofactorPoint(s, 1000))}
	parsed := s.ParseShares(pool)
	if len(parsed) != 2 {
		t.Fatalf("ParseShares kept %d of 2 curve points", len(parsed))
	}
	if sig, err := s.CombineVerified(gk, msg, parsed); err == nil {
		t.Fatalf("combination with a mauled share returned: %x (honest %x)", sig.Bytes(s), honest.Bytes(s))
	}

	pool[3] = enc(2)
	sig, err := s.CombineVerified(gk, msg, s.ParseShares(pool))
	if err != nil {
		t.Fatalf("pool with two honest shares: %v", err)
	}
	if !bytes.Equal(sig.Bytes(s), honest.Bytes(s)) {
		t.Fatalf("pool completed with %x, want the honest %x", sig.Bytes(s), honest.Bytes(s))
	}
}

// FuzzCombineVerified builds pools from honest shares, shares carrying a
// cofactor component — of order 2, of order 4, r·Q for a curve point Q, or
// both of the last two — shares off by the generator, infinity, repeated
// indices and indices no member holds (0, and 5 to 7 of four), and decodes
// each as ParseShares does. Whatever the pool, CombineVerified returns
// nothing but the honest signature, byte for byte, and returns it whenever
// the pool's first share per index includes t honest ones.
func FuzzCombineVerified(f *testing.F) {
	s := testScheme()
	p := s.Params.P
	gk, keys, err := s.Deal(mrand.New(mrand.NewSource(1)), 2, 4)
	if err != nil {
		f.Fatal(err)
	}
	msg := []byte("fuzz/combine-verified")
	honest, err := s.Combine(gk, []SignatureShare{s.SignShare(keys[0], msg), s.SignShare(keys[1], msg)})
	if err != nil {
		f.Fatal(err)
	}
	order4, ok := lift(p, big.NewInt(1))
	if !ok {
		order4, _ = lift(p, new(big.Int).Sub(p, big.NewInt(1)))
	}
	tq := cofactorPoint(s, 7)
	comps := []affinePoint{
		{x: new(big.Int), y: new(big.Int)}, // (0, 0), order 2
		order4,
		tq,
		affineAdd(p, order4, tq),
	}
	signed := make([][]byte, len(keys))
	for i, k := range keys {
		signed[i] = s.Params.PointBytes(s.SignShare(k, msg).Point)
	}
	// A byte per share: bits 0–2 the index it claims, 3–4 the key that
	// signed it, 5–7 its kind.
	f.Add([]byte{0x01, 0x0a})
	f.Add([]byte{0x41, 0x0a, 0x13})
	f.Add([]byte{0x61, 0x6a, 0x13, 0x1c})
	f.Add([]byte{0x81, 0x8a, 0x93})
	f.Add([]byte{0xa1, 0x0a, 0x0a, 0x13})
	f.Add([]byte{0xc1, 0xca, 0x05, 0x13, 0x1c})
	f.Add([]byte{0xe1, 0x00, 0x0a, 0x0f, 0x13})
	f.Fuzz(func(t *testing.T, pool []byte) {
		if len(pool) > 8 {
			return
		}
		var shares []SignatureShare
		seen := make(map[uint32]bool)
		good := 0
		for _, c := range pool {
			idx, key, kind := uint32(c&7), int(c>>3&3), c>>5
			enc := signed[key]
			switch {
			case kind >= 2 && kind <= 5:
				enc = maul(s, enc, comps[kind-2])
			case kind == 6:
				enc = s.Params.PointBytes(s.Params.Add(s.SignShare(keys[key], msg).Point, s.Params.G))
			case kind == 7:
				enc = []byte{0}
			}
			pt, err := s.Params.ParseCurvePoint(enc)
			if err != nil {
				t.Fatalf("share %x does not decode: %v", enc, err)
			}
			if !seen[idx] {
				seen[idx] = true
				if kind < 2 && idx == keys[key].Index {
					good++
				}
			}
			shares = append(shares, SignatureShare{Index: idx, Point: pt})
		}
		sig, err := s.CombineVerified(gk, msg, shares)
		if err != nil {
			if good >= gk.T {
				t.Fatalf("pool %x holds %d honest shares, CombineVerified: %v", pool, good, err)
			}
			return
		}
		if !bytes.Equal(sig.Bytes(s), honest.Bytes(s)) || !s.Params.InG1(sig.Point) || sig.Point.IsInfinity() {
			t.Fatalf("pool %x combined to %x, want the honest %x", pool, sig.Bytes(s), honest.Bytes(s))
		}
	})
}
