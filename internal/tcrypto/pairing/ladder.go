package pairing

import "math/big"

// x-only scalar multiplication. y² = x³ + x is the Montgomery curve
// B·y² = x³ + A·x² + x with A = 0 and B = 1, so Montgomery's ladder
// applies: it carries only X and Z of R0 = j·P and R1 = (j+1)·P, whose
// difference is always P, and each bit of the scalar costs one doubling
// (2S + 2M at A = 0) and one differential addition (2S + 3M against the
// affine difference), where a Jacobian doubling alone costs nine
// multiplications. The cost depends on the scalar's length and not on its
// digits, so a walk that clears the cofactor h = 2¹⁷⁴ + 140 pays what its
// NAF walk paid, and signing folds the share scalar into the same walk
// (HashToG1Mul). What the ladder cannot do is yield the chord and tangent
// lines the Miller loop evaluates, or share one doubling chain among
// several scalars, so Pair, Prepare and MultiScalarMul keep the Jacobian
// steps of jacobian.go.

// xzPoint is a point in x-only projective coordinates (X : Z) on
// Montgomery limbs; Z = 0 is infinity. Starting from a point other than
// (0, 0), the ladder never produces (0 : 0).
type xzPoint struct {
	x, z fe
}

// step sets d ← 2·d and a ← d + a, for x-only points whose difference
// a − d has the affine x-coordinate xd. With s = X_d + Z_d and
// t = X_d − Z_d, the doubling is (2·s²·t² : (s² − t²)(s² + t²)), because
// s² − t² = 4·X·Z and s² + t² = 2(X² + Z²) make its x-coordinate
// (X² − Z²)²/(4XZ(X² + Z²)); with u = t·(X_a + Z_a) and
// v = s·(X_a − Z_a), the sum is ((u + v)² : xd·(u − v)²). The two share
// s and t.
func (p *Params) step(d, a *xzPoint, xd *fe) {
	f := p.fp
	var s, t, u, v fe
	f.add(&s, &d.x, &d.z)
	f.sub(&t, &d.x, &d.z)
	f.add(&u, &a.x, &a.z)
	f.mul(&u, &u, &t)
	f.sub(&v, &a.x, &a.z)
	f.mul(&v, &v, &s)
	f.add(&a.x, &u, &v)
	f.sqr(&a.x, &a.x)
	f.sub(&a.z, &u, &v)
	f.sqr(&a.z, &a.z)
	f.mul(&a.z, &a.z, xd)
	f.sqr(&s, &s)
	f.sqr(&t, &t)
	f.mul(&d.x, &s, &t)
	f.dbl(&d.x, &d.x)
	f.sub(&u, &s, &t)
	f.add(&s, &s, &t)
	f.mul(&d.z, &u, &s)
}

// ladder walks a scalar k ≥ 1, not reduced modulo anything, from pt,
// which must be neither infinity nor (0, 0): a difference with x = 0
// would zero the Z of every sum. It returns k·pt and (k+1)·pt, starting
// from R0 = ∞ = (1 : 0) and R1 = pt.
func (p *Params) ladder(pt *Point, k *big.Int) (r0, r1 xzPoint) {
	r0 = xzPoint{x: p.fp.one}
	r1 = xzPoint{x: pt.x, z: p.fp.one}
	for i := k.BitLen() - 1; i >= 0; i-- {
		if k.Bit(i) == 0 {
			p.step(&r0, &r1, &pt.x)
		} else {
			p.step(&r1, &r0, &pt.x)
		}
	}
	return r0, r1
}

// mul returns k·pt for any k ≥ 0, not reduced modulo r: one ladder walk
// and one inversion, in the y-recovery.
func (p *Params) mul(pt *Point, k *big.Int) *Point {
	if k.Sign() == 0 || pt.IsInfinity() {
		return Infinity()
	}
	if pt.y.isZero() {
		// (0, 0), the one point with y = 0 (x² = −1 has no root when
		// p ≡ 3 mod 4), has order two.
		if k.Bit(0) == 0 {
			return Infinity()
		}
		return pt.Clone()
	}
	q, q1 := p.ladder(pt, k)
	return p.recoverY(pt, &q, &q1)
}

// recoverY returns q = k·pt in affine coordinates from its x-only form and
// that of q1 = (k+1)·pt, by Okeya–Sakurai y-recovery. At A = 0 and B = 1
// the chord through pt and q gives
//
//	2y·y_q = (x·x_q + 1)(x_q + x) − (x_q − x)²·x_{q1},
//
// so with D = 2y·Z·Z₁, x_q = X·D/(Z·D) and
// y_q = [Z₁(X + x·Z)(x·X + Z) − X₁(X − x·Z)²]/(Z·D): one inversion. The
// formula needs Z ≠ 0 and Z₁ ≠ 0; k·pt = ∞ and (k+1)·pt = ∞ (then
// q = −pt) are answered first.
func (p *Params) recoverY(pt *Point, q, q1 *xzPoint) *Point {
	switch {
	case q.z.isZero():
		return Infinity()
	case q1.z.isZero():
		return p.Neg(pt)
	}
	f := p.fp
	var xz, a, b, d fe
	f.mul(&xz, &pt.x, &q.z)
	f.add(&a, &q.x, &xz)
	f.mul(&b, &pt.x, &q.x)
	f.add(&b, &b, &q.z)
	f.mul(&a, &a, &b)
	f.mul(&a, &a, &q1.z)
	f.sub(&b, &q.x, &xz)
	f.sqr(&b, &b)
	f.mul(&b, &b, &q1.x)
	f.sub(&a, &a, &b)
	f.dbl(&d, &pt.y)
	f.mul(&d, &d, &q.z)
	f.mul(&d, &d, &q1.z)
	f.mul(&b, &d, &q.z)
	f.inv(&b, &b)
	out := &Point{f: f}
	f.mul(&out.x, &q.x, &d)
	f.mul(&out.x, &out.x, &b)
	f.mul(&out.y, &a, &b)
	return out
}
