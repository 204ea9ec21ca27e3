package pairing

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"

	"cicero/internal/metrics"
)

// Pair computes the symmetric reduced Tate pairing e(a, b) ∈ GT.
//
// Internally it evaluates the Miller function f_{r,a} at the distorted
// point φ(b) = (−x_b, i·y_b) ∈ E(F_{p^2}) and applies the final
// exponentiation z ↦ z^{(p²−1)/r}. The distortion map guarantees
// non-degeneracy for a, b ∈ G1, yielding a symmetric pairing with
// e(s·a, t·b) = e(a, b)^{s·t}.
func (p *Params) Pair(a, b *Point) *GT {
	fc, ok := p.newFactor(nil, a, b)
	if !ok {
		return p.gtOne()
	}
	metrics.Crypto.Pairings.Add(1)
	return p.millerProduct([]factor{fc})
}

// factor is one e(a, b) of a pairing product inside the shared Miller
// loop. Its lines come either from a prepared first argument (prep, with
// next the cursor into prep.lines) or from walking the running point
// v = k·a live.
type factor struct {
	xb, yb fe
	prep   *PreparedPoint
	next   int
	a      *Point
	v      jacPoint
}

// newFactor sets up e(a, b), or e(prep's point, b) when prep is non-nil;
// ok is false when either argument is infinity and the factor is 1. A live
// walk starts at v = a.
func (p *Params) newFactor(prep *PreparedPoint, a, b *Point) (fc factor, ok bool) {
	if prep != nil {
		a = prep.a
	}
	if a.IsInfinity() || b.IsInfinity() {
		return factor{}, false
	}
	fc = factor{xb: b.x, yb: b.y, prep: prep}
	if prep == nil {
		fc.a, fc.v = a, p.fromAffine(a)
	}
	return fc, true
}

// millerProduct runs Miller's algorithm for every factor over one shared
// squaring chain, computing ∏ f_{r,a}(φ(b)), and applies the final
// exponentiation.
//
// Each step of a walk yields the line through the points it combines
// (see line): f ← f²·l_{v,v}(φ(b)), v ← 2v on every bit of r, then
// f ← f·l_{v,a}(φ(b)), v ← v + a on set bits. The lines come out of the
// Jacobian formulas scaled by an element of F_p*, and vertical lines —
// which evaluate inside F_p — are skipped altogether: the final
// exponentiation sends all of F_p* to 1, so the reduced value is that of
// the textbook affine loop while no step pays an inversion.
func (p *Params) millerProduct(facs []factor) *GT {
	fp := p.fp
	f := p.gtOne()
	var ln line
	var re, im fe
	// mulLine sets f ← f·[(a·x_b + c) + im·i].
	mulLine := func(a, c, xb, im *fe) {
		fp.mul(&re, a, xb)
		fp.add(&re, &re, c)
		f.mul(&re, im)
	}
	mulLive := func(fc *factor) {
		fp.mul(&im, &ln.d, &fc.yb)
		mulLine(&ln.a, &ln.c, &fc.xb, &im)
	}
	top := p.R.BitLen() - 2
	for i := top; i >= 0; i-- {
		f.square()
		bit := p.R.Bit(i) == 1
		for k := range facs {
			fc := &facs[k]
			if fc.prep != nil {
				// Prepared lines are normalised to d = 1.
				for n := fc.prep.counts[top-i]; n > 0; n-- {
					l := &fc.prep.lines[fc.next]
					fc.next++
					mulLine(&l.a, &l.c, &fc.xb, &fc.yb)
				}
				continue
			}
			if p.jacDouble(&fc.v, &ln) {
				mulLive(fc)
			}
			if bit && p.jacAddAffine(&fc.v, fc.a, &ln) {
				mulLive(fc)
			}
		}
	}
	p.finalExp(f)
	return f
}

// finalExp raises z to (p²−1)/r = (p−1)·h in place, mapping
// Miller-function values onto the order-r subgroup of F_{p^2}.
func (p *Params) finalExp(z *GT) {
	// z^(p−1) = conj(z)/z: the Frobenius in F_{p^2} is conjugation.
	inv := *z
	inv.invert()
	z.conj()
	z.mul(&inv.a, &inv.b)
	// Then raise to (p+1)/r = h.
	z.exp(p.H)
}

// HashToG1 hashes arbitrary bytes to a point of order r: the
// try-and-increment candidate c of HashToCurve, cleared to h·c. In the
// rare case h·c = ∞ (probability about 1/r) it moves on to the next
// counter's candidate.
func (p *Params) HashToG1(msg []byte) *Point {
	return p.HashToG1Mul(msg, big.NewInt(1))
}

// HashToG1Mul returns k·HashToG1(msg) in one ladder walk of (k mod r)·h
// from the candidate c, where scalar-multiplying the cleared point would
// walk twice and invert twice. A walk that ends at ∞ means h·c = ∞, and
// the next counter is tried exactly as HashToG1 tries it. k ≡ 0 (mod r)
// returns ∞, as ScalarMul does.
func (p *Params) HashToG1Mul(msg []byte, k *big.Int) *Point {
	s := new(big.Int).Mod(k, p.R)
	if s.Sign() == 0 {
		return Infinity()
	}
	s.Mul(s, p.H)
	for ctr := uint32(0); ; ctr++ {
		c, ok := p.candidate(msg, ctr)
		if !ok {
			continue
		}
		// With k ≢ 0 (mod r), s·c = (k mod r)·(h·c) is ∞ exactly when
		// h·c is.
		if pt := p.mul(c, s); !pt.IsInfinity() {
			return pt
		}
	}
}

// HashToCurve returns the point HashToG1 clears: the first
// try-and-increment candidate c, so that HashToG1(msg) = h·c unless h·c
// is ∞. It is a point of E(F_p) that is in general outside G1. Use it
// only as the second argument of a pairing, where the reduced pairing is
// bilinear over all of E(F_p) — e(a, h·c) = e(a, c)^h — and never where a
// G1 point is expected.
func (p *Params) HashToCurve(msg []byte) *Point {
	for ctr := uint32(0); ; ctr++ {
		if c, ok := p.candidate(msg, ctr); ok {
			return c
		}
	}
}

// candidate lifts hash-to-field's element for (msg, ctr) to the curve;
// ok is false when x³ + x is zero or not a square. The Legendre symbol
// turns a non-square away before the square root's exponentiation, which
// about half of all candidates would otherwise pay for nothing.
func (p *Params) candidate(msg []byte, ctr uint32) (c *Point, ok bool) {
	fp := p.fp
	c = &Point{f: fp}
	fp.fromBig(&c.x, p.hashToField(msg, ctr))
	var y2 fe
	p.curveRHS(&y2, &c.x)
	if fp.legendre(&y2) != 1 {
		return nil, false
	}
	// Since p ≡ 3 (mod 4), the square y2 has the root y2^((p+1)/4).
	fp.exp(&c.y, &y2, &p.sqrtExp)
	return c, true
}

// hashToField expands (msg, ctr) into a field element via SHA-256 in
// counter mode, taking enough blocks to cover the field width plus a
// 128-bit reduction margin.
func (p *Params) hashToField(msg []byte, ctr uint32) *big.Int {
	need := (p.P.BitLen()+7)/8 + 16
	var out []byte
	var block uint32
	for len(out) < need {
		h := sha256.New()
		h.Write([]byte("cicero/pairing/h2f"))
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:4], ctr)
		binary.BigEndian.PutUint32(hdr[4:], block)
		h.Write(hdr[:])
		h.Write(msg)
		out = h.Sum(out)
		block++
	}
	x := new(big.Int).SetBytes(out[:need])
	return x.Mod(x, p.P)
}

// HashToScalar hashes arbitrary bytes to a scalar modulo r.
func (p *Params) HashToScalar(msg []byte) *big.Int {
	need := (p.R.BitLen()+7)/8 + 16
	var out []byte
	var block uint32
	for len(out) < need {
		h := sha256.New()
		h.Write([]byte("cicero/pairing/h2s"))
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], block)
		h.Write(hdr[:])
		h.Write(msg)
		out = h.Sum(out)
		block++
	}
	x := new(big.Int).SetBytes(out[:need])
	return x.Mod(x, p.R)
}
