package pairing

import "math/big"

// Jacobian-coordinate curve steps. Affine double-and-add pays one modular
// inversion per step (the chord/tangent slope); in Jacobian projective
// coordinates (X, Y, Z) ~ (X/Z², Y/Z³) a walk is inversion-free and a
// single inversion converts the result back to affine. Two walks run on
// these steps: the Miller loop, which needs each step's line, and
// MultiScalarMul, which shares one doubling chain among several scalars
// (Combine's Lagrange exponentiation). Single-scalar walks run on the
// x-only ladder of ladder.go.
//
// Formulas are the standard dbl-2007-bl / madd-2007-bl for
// y² = x³ + a·x with a = 1 (this package's supersingular curve), with
// their (u+v)² − u² − v² products written as plain 2·u·v: the field has no
// squaring cheaper than a multiplication, so the trick would only add
// additions.

// jacPoint is a point in Jacobian coordinates on Montgomery limbs; z == 0
// (in particular the zero value) is infinity. The walks below mutate one
// accumulator in place.
type jacPoint struct {
	x, y, z fe
}

// fromAffine lifts an affine point, which must not be infinity, to
// Jacobian coordinates.
func (p *Params) fromAffine(pt *Point) jacPoint {
	return jacPoint{x: pt.x, y: pt.y, z: p.fp.one}
}

// toAffine projects back, paying the single inversion.
func (p *Params) toAffine(j *jacPoint) *Point {
	if j.z.isZero() {
		return Infinity()
	}
	f := p.fp
	var zInv, zInv2 fe
	f.inv(&zInv, &j.z)
	f.sqr(&zInv2, &zInv)
	pt := &Point{f: f}
	f.mul(&pt.x, &j.x, &zInv2)
	f.mul(&zInv2, &zInv2, &zInv)
	f.mul(&pt.y, &j.y, &zInv2)
	return pt
}

// line is the chord or tangent a curve step passes through, as a Miller
// loop needs it: evaluated at the distorted point φ(b) = (−x_b, i·y_b) it
// is (a·x_b + c) + (d·y_b)·i, up to a factor in F_p* that the final
// exponentiation kills. Carrying that factor instead of dividing it out is
// what keeps the loop inversion-free: an affine chord with slope λ through
// (x1, y1) evaluates to [λ·(x_b + x1) − y1] + y_b·i, and the steps below
// scale it by the slope's denominator.
type line struct {
	a, c, d fe
}

// jacDouble sets j ← 2·j. When ln is non-nil and j has a tangent there
// (j is neither infinity nor of order two, whose vertical tangent lies in
// F_p and is dropped), ln receives it and the result is true.
func (p *Params) jacDouble(j *jacPoint, ln *line) bool {
	if j.z.isZero() || j.y.isZero() {
		*j = jacPoint{}
		return false
	}
	f := p.fp
	var xx, yy2, c8, zz, s, m, t fe
	f.sqr(&xx, &j.x)
	f.sqr(&zz, &j.z)
	// The formulas want YY = Y² only as 2·YY, 4·X·YY and 8·YY²; keeping
	// 2·YY instead saves three of their doublings.
	f.sqr(&yy2, &j.y)
	f.dbl(&yy2, &yy2)
	// S = 4·X·YY
	f.mul(&s, &j.x, &yy2)
	f.dbl(&s, &s)
	f.sqr(&c8, &yy2)
	f.dbl(&c8, &c8)
	// M = 3·XX + a·ZZ² with a = 1.
	f.dbl(&m, &xx)
	f.add(&m, &m, &xx)
	f.sqr(&t, &zz)
	f.add(&m, &m, &t)
	// Z3 = 2·Y·Z
	f.mul(&j.z, &j.y, &j.z)
	f.dbl(&j.z, &j.z)
	if ln != nil {
		// The slope is M/Z3 and (x1, y1) = (X/ZZ, Y/(Z·ZZ)); scaling
		// the affine line by Z3·ZZ leaves
		// [M·ZZ·x_b + M·X − 2·YY] + Z3·ZZ·y_b·i.
		f.mul(&ln.a, &m, &zz)
		f.mul(&ln.c, &m, &j.x)
		f.sub(&ln.c, &ln.c, &yy2)
		f.mul(&ln.d, &j.z, &zz)
	}
	// X3 = M² − 2·S
	f.sqr(&j.x, &m)
	f.sub(&j.x, &j.x, &s)
	f.sub(&j.x, &j.x, &s)
	// Y3 = M·(S − X3) − 8·YY²
	f.sub(&s, &s, &j.x)
	f.mul(&j.y, &m, &s)
	f.sub(&j.y, &j.y, &c8)
	return true
}

// jacAddAffine sets j ← j + pt for an affine pt (mixed addition). When ln
// is non-nil and the step has a non-vertical line — the chord through j
// and pt, or the tangent when they coincide — ln receives it and the
// result is true; adding to infinity or to −pt has none.
func (p *Params) jacAddAffine(j *jacPoint, pt *Point, ln *line) bool {
	f := p.fp
	if j.z.isZero() {
		*j = p.fromAffine(pt)
		return false
	}
	var z1z1, u2, s2, h, r, i, jj, v, t fe
	f.sqr(&z1z1, &j.z)
	f.mul(&u2, &pt.x, &z1z1)
	f.mul(&s2, &pt.y, &j.z)
	f.mul(&s2, &s2, &z1z1)
	f.sub(&h, &u2, &j.x)
	f.sub(&r, &s2, &j.y)
	if h.isZero() {
		if r.isZero() {
			return p.jacDouble(j, ln)
		}
		*j = jacPoint{}
		return false
	}
	f.dbl(&r, &r)
	// I = (2·H)², J = H·I, V = X1·I
	f.dbl(&i, &h)
	f.sqr(&i, &i)
	f.mul(&jj, &h, &i)
	f.mul(&v, &j.x, &i)
	// Z3 = 2·Z1·H
	f.mul(&j.z, &j.z, &h)
	f.dbl(&j.z, &j.z)
	if ln != nil {
		// The slope is r/Z3; scaling the affine line through pt by Z3
		// leaves [r·x_b + r·x2 − Z3·y2] + Z3·y_b·i.
		ln.a = r
		f.mul(&ln.c, &r, &pt.x)
		f.mul(&t, &j.z, &pt.y)
		f.sub(&ln.c, &ln.c, &t)
		ln.d = j.z
	}
	// X3 = r² − J − 2·V
	f.sqr(&j.x, &r)
	f.sub(&j.x, &j.x, &jj)
	f.sub(&j.x, &j.x, &v)
	f.sub(&j.x, &j.x, &v)
	// Y3 = r·(V − X3) − 2·Y1·J
	f.mul(&t, &j.y, &jj)
	f.dbl(&t, &t)
	f.sub(&v, &v, &j.x)
	f.mul(&j.y, &r, &v)
	f.sub(&j.y, &j.y, &t)
	return true
}

// naf returns the non-adjacent form of a non-negative k, least
// significant digit first. NAF cuts the expected non-zero digit density
// from 1/2 to 1/3, and the negative digits cost nothing extra because
// negating an affine point is free.
func naf(k *big.Int) []int8 {
	digits := make([]int8, 0, k.BitLen()+1)
	n := new(big.Int).Set(k)
	one := big.NewInt(1)
	for n.Sign() > 0 {
		if n.Bit(0) == 1 {
			if n.Bits()[0]&3 == 1 {
				digits = append(digits, 1)
				n.Sub(n, one)
			} else {
				digits = append(digits, -1)
				n.Add(n, one)
			}
		} else {
			digits = append(digits, 0)
		}
		n.Rsh(n, 1)
	}
	return digits
}

// balanced returns the shorter of a scalar kr already reduced to [1, r)
// and r − kr, the latter with flip = true: the caller multiplies the
// negated point instead. Scalars near r — notably Lagrange coefficients of
// consecutive-index quorums, which are small negative integers mod r —
// collapse from full field width to a handful of bits.
func (p *Params) balanced(kr *big.Int) (*big.Int, bool) {
	if neg := new(big.Int).Sub(p.R, kr); neg.BitLen() < kr.BitLen() {
		return neg, true
	}
	return kr, false
}

// MultiScalarMul computes Σᵢ kᵢ·ptᵢ with a single shared doubling chain
// (Straus interleaving): one doubling per scalar bit regardless of the
// number of terms, plus sparse NAF additions per term. This is the shape
// of threshold combining (Σ λᵢ·σᵢ) and of random-linear-combination
// batch verification (Σ cᵢ·σᵢ, Σ cᵢ·vkᵢ). Scalars are reduced modulo r.
func (p *Params) MultiScalarMul(points []*Point, scalars []*big.Int) *Point {
	if len(points) != len(scalars) {
		panic("pairing: MultiScalarMul length mismatch")
	}
	type term struct {
		pt, neg *Point
		digits  []int8
	}
	terms := make([]term, 0, len(points))
	maxLen := 0
	for i, pt := range points {
		kr := new(big.Int).Mod(scalars[i], p.R)
		if kr.Sign() == 0 || pt.IsInfinity() {
			continue
		}
		kb, flip := p.balanced(kr)
		t := term{pt: pt, neg: p.Neg(pt), digits: naf(kb)}
		if flip {
			t.pt, t.neg = t.neg, t.pt
		}
		if len(t.digits) > maxLen {
			maxLen = len(t.digits)
		}
		terms = append(terms, t)
	}
	if len(terms) == 0 {
		return Infinity()
	}
	var acc jacPoint
	for i := maxLen - 1; i >= 0; i-- {
		p.jacDouble(&acc, nil)
		for _, t := range terms {
			if i >= len(t.digits) {
				continue
			}
			switch t.digits[i] {
			case 1:
				p.jacAddAffine(&acc, t.pt, nil)
			case -1:
				p.jacAddAffine(&acc, t.neg, nil)
			}
		}
	}
	return p.toAffine(&acc)
}
