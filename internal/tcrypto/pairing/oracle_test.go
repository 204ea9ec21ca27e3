package pairing

import (
	"math/big"
)

// The math/big arithmetic this package ran on before the Montgomery limbs,
// kept as a reference the limb code is checked against: the same affine
// and Jacobian formulas, the same F_{p²} products, and the textbook affine
// Miller loop that pays an inversion per step. Reductions are plain Mod.

type refPoint struct{ X, Y *big.Int } // nil coordinates: infinity

func (pt *refPoint) inf() bool { return pt == nil || pt.X == nil }

type refJac struct{ x, y, z *big.Int } // z == 0: infinity

type refGT struct{ A, B *big.Int }

// ref is the reference implementation over one parameter set.
type ref struct{ p *Params }

func (r ref) mod(x *big.Int) *big.Int { return x.Mod(x, r.p.P) }

// ---- conversions between the two worlds ----

func (r ref) fe(x *big.Int) fe {
	var z fe
	r.p.fp.fromBig(&z, x)
	return z
}

func (r ref) point(pt *Point) *refPoint {
	if pt.IsInfinity() {
		return &refPoint{}
	}
	return &refPoint{X: r.p.fp.toBig(&pt.x), Y: r.p.fp.toBig(&pt.y)}
}

func (r ref) limbPoint(pt *refPoint) *Point {
	if pt.inf() {
		return Infinity()
	}
	return &Point{f: r.p.fp, x: r.fe(pt.X), y: r.fe(pt.Y)}
}

func (r ref) samePoint(a *Point, b *refPoint) bool {
	if a.IsInfinity() || b.inf() {
		return a.IsInfinity() && b.inf()
	}
	f := r.p.fp
	return f.toBig(&a.x).Cmp(b.X) == 0 && f.toBig(&a.y).Cmp(b.Y) == 0
}

func (r ref) limbGT(g *refGT) *GT {
	return &GT{f: r.p.fp, a: r.fe(g.A), b: r.fe(g.B)}
}

func (r ref) sameGT(a *GT, b *refGT) bool {
	f := r.p.fp
	return f.toBig(&a.a).Cmp(b.A) == 0 && f.toBig(&a.b).Cmp(b.B) == 0
}

// ---- affine curve arithmetic ----

func (r ref) onCurve(pt *refPoint) bool {
	if pt.inf() {
		return true
	}
	lhs := r.mod(new(big.Int).Mul(pt.Y, pt.Y))
	rhs := new(big.Int).Mul(pt.X, pt.X)
	rhs.Mul(rhs, pt.X)
	rhs.Add(rhs, pt.X)
	return lhs.Cmp(r.mod(rhs)) == 0
}

func (r ref) neg(a *refPoint) *refPoint {
	if a.inf() {
		return a
	}
	return &refPoint{X: a.X, Y: r.mod(new(big.Int).Neg(a.Y))}
}

func (r ref) add(a, b *refPoint) *refPoint {
	if a.inf() {
		return b
	}
	if b.inf() {
		return a
	}
	if a.X.Cmp(b.X) == 0 {
		if r.mod(new(big.Int).Add(a.Y, b.Y)).Sign() == 0 {
			return &refPoint{}
		}
		return r.double(a)
	}
	// λ = (y2 − y1)/(x2 − x1)
	num := new(big.Int).Sub(b.Y, a.Y)
	den := r.mod(new(big.Int).Sub(b.X, a.X))
	den.ModInverse(den, r.p.P)
	return r.chord(a, b, r.mod(num.Mul(num, den)))
}

func (r ref) double(a *refPoint) *refPoint {
	if a.inf() || a.Y.Sign() == 0 {
		return &refPoint{}
	}
	return r.chord(a, a, r.tangentSlope(a))
}

// tangentSlope is λ = (3x² + 1)/(2y) for the curve y² = x³ + x.
func (r ref) tangentSlope(a *refPoint) *big.Int {
	num := new(big.Int).Mul(a.X, a.X)
	num.Mul(num, big.NewInt(3))
	num.Add(num, big.NewInt(1))
	den := r.mod(new(big.Int).Lsh(a.Y, 1))
	den.ModInverse(den, r.p.P)
	return r.mod(num.Mul(num, den))
}

// chord completes point addition given the chord/tangent slope.
func (r ref) chord(a, b *refPoint, lambda *big.Int) *refPoint {
	x3 := new(big.Int).Mul(lambda, lambda)
	x3.Sub(x3, a.X)
	x3.Sub(x3, b.X)
	r.mod(x3)
	y3 := new(big.Int).Sub(a.X, x3)
	y3.Mul(y3, lambda)
	y3.Sub(y3, a.Y)
	return &refPoint{X: x3, Y: r.mod(y3)}
}

// scalarMul is plain affine double-and-add; k is not reduced modulo r.
func (r ref) scalarMul(pt *refPoint, k *big.Int) *refPoint {
	acc := &refPoint{}
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = r.double(acc)
		if k.Bit(i) == 1 {
			acc = r.add(acc, pt)
		}
	}
	return acc
}

// ---- Jacobian arithmetic (dbl-2007-bl / madd-2007-bl) ----

func (r ref) jacInfinity() *refJac {
	return &refJac{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
}

func (r ref) toAffine(j *refJac) *refPoint {
	if j.z.Sign() == 0 {
		return &refPoint{}
	}
	zInv := new(big.Int).ModInverse(j.z, r.p.P)
	zInv2 := r.mod(new(big.Int).Mul(zInv, zInv))
	x := r.mod(new(big.Int).Mul(j.x, zInv2))
	zInv3 := r.mod(zInv2.Mul(zInv2, zInv))
	return &refPoint{X: x, Y: r.mod(new(big.Int).Mul(j.y, zInv3))}
}

func (r ref) jacDouble(j *refJac) *refJac {
	if j.z.Sign() == 0 || j.y.Sign() == 0 {
		return r.jacInfinity()
	}
	xx := r.mod(new(big.Int).Mul(j.x, j.x))
	yy := r.mod(new(big.Int).Mul(j.y, j.y))
	yyyy := r.mod(new(big.Int).Mul(yy, yy))
	zz := r.mod(new(big.Int).Mul(j.z, j.z))
	// S = 2·((X+YY)² − XX − YYYY)
	s := new(big.Int).Add(j.x, yy)
	s.Mul(s, s)
	s.Sub(s, xx)
	s.Sub(s, yyyy)
	r.mod(s.Lsh(s, 1))
	// M = 3·XX + a·ZZ² with a = 1.
	m := new(big.Int).Lsh(xx, 1)
	m.Add(m, xx)
	m.Add(m, new(big.Int).Mul(zz, zz))
	r.mod(m)
	// X3 = M² − 2·S
	x3 := new(big.Int).Mul(m, m)
	x3.Sub(x3, s)
	r.mod(x3.Sub(x3, s))
	// Y3 = M·(S − X3) − 8·YYYY
	y3 := new(big.Int).Sub(s, x3)
	y3.Mul(y3, m)
	r.mod(y3.Sub(y3, new(big.Int).Lsh(yyyy, 3)))
	// Z3 = (Y+Z)² − YY − ZZ
	z3 := new(big.Int).Add(j.y, j.z)
	z3.Mul(z3, z3)
	z3.Sub(z3, yy)
	r.mod(z3.Sub(z3, zz))
	return &refJac{x: x3, y: y3, z: z3}
}

func (r ref) jacAddAffine(j *refJac, pt *refPoint) *refJac {
	if j.z.Sign() == 0 {
		return &refJac{x: pt.X, y: pt.Y, z: big.NewInt(1)}
	}
	z1z1 := r.mod(new(big.Int).Mul(j.z, j.z))
	u2 := r.mod(new(big.Int).Mul(pt.X, z1z1))
	s2 := new(big.Int).Mul(pt.Y, j.z)
	r.mod(s2.Mul(s2, z1z1))
	h := r.mod(new(big.Int).Sub(u2, j.x))
	rr := r.mod(new(big.Int).Sub(s2, j.y))
	if h.Sign() == 0 {
		if rr.Sign() == 0 {
			return r.jacDouble(j)
		}
		return r.jacInfinity()
	}
	r.mod(rr.Lsh(rr, 1))
	hh := r.mod(new(big.Int).Mul(h, h))
	i := r.mod(new(big.Int).Lsh(hh, 2))
	jj := r.mod(new(big.Int).Mul(h, i))
	v := r.mod(new(big.Int).Mul(j.x, i))
	// X3 = r² − J − 2·V
	x3 := new(big.Int).Mul(rr, rr)
	x3.Sub(x3, jj)
	x3.Sub(x3, v)
	r.mod(x3.Sub(x3, v))
	// Y3 = r·(V − X3) − 2·Y1·J
	y3 := new(big.Int).Sub(v, x3)
	y3.Mul(y3, rr)
	t := new(big.Int).Mul(j.y, jj)
	r.mod(y3.Sub(y3, t.Lsh(t, 1)))
	// Z3 = (Z1+H)² − Z1Z1 − HH
	z3 := new(big.Int).Add(j.z, h)
	z3.Mul(z3, z3)
	z3.Sub(z3, z1z1)
	r.mod(z3.Sub(z3, hh))
	return &refJac{x: x3, y: y3, z: z3}
}

// ---- F_{p²} ----

func (r ref) gtOne() *refGT { return &refGT{A: big.NewInt(1), B: new(big.Int)} }

func (r ref) gtMul(x, y *refGT) *refGT {
	// (a+bi)(c+di) = (ac − bd) + (ad + bc)i
	ac := new(big.Int).Mul(x.A, y.A)
	bd := new(big.Int).Mul(x.B, y.B)
	ad := new(big.Int).Mul(x.A, y.B)
	bc := new(big.Int).Mul(x.B, y.A)
	return &refGT{A: r.mod(ac.Sub(ac, bd)), B: r.mod(ad.Add(ad, bc))}
}

func (r ref) gtSquare(x *refGT) *refGT { return r.gtMul(x, x) }

func (r ref) gtConj(x *refGT) *refGT {
	return &refGT{A: x.A, B: r.mod(new(big.Int).Neg(x.B))}
}

func (r ref) gtInv(x *refGT) *refGT {
	// 1/(a+bi) = (a − bi)/(a² + b²)
	norm := new(big.Int).Mul(x.A, x.A)
	norm.Add(norm, new(big.Int).Mul(x.B, x.B))
	r.mod(norm).ModInverse(norm, r.p.P)
	a := r.mod(new(big.Int).Mul(x.A, norm))
	b := new(big.Int).Neg(x.B)
	return &refGT{A: a, B: r.mod(b.Mul(b, norm))}
}

func (r ref) gtExp(x *refGT, e *big.Int) *refGT {
	result := r.gtOne()
	for i := e.BitLen() - 1; i >= 0; i-- {
		result = r.gtSquare(result)
		if e.Bit(i) == 1 {
			result = r.gtMul(result, x)
		}
	}
	return result
}

// ---- the textbook Miller loop ----

// pair is the reduced Tate pairing e(a, φ(b)) with affine lines: a chord
// with slope λ through (x1, y1) evaluates at φ(b) = (−x_b, i·y_b) to
// [−y1 + λ(x_b + x1)] + y_b·i, a vertical line through x1 to −x_b − x1.
func (r ref) pair(a, b *refPoint) *refGT {
	if a.inf() || b.inf() {
		return r.gtOne()
	}
	chordAt := func(at *refPoint, lambda *big.Int) *refGT {
		re := new(big.Int).Add(b.X, at.X)
		re.Mul(re, lambda)
		return &refGT{A: r.mod(re.Sub(re, at.Y)), B: b.Y}
	}
	verticalAt := func(at *refPoint) *refGT {
		re := new(big.Int).Neg(b.X)
		return &refGT{A: r.mod(re.Sub(re, at.X)), B: new(big.Int)}
	}
	f := r.gtOne()
	v := a
	for i := r.p.R.BitLen() - 2; i >= 0; i-- {
		f = r.gtSquare(f)
		if !v.inf() {
			if v.Y.Sign() == 0 {
				f = r.gtMul(f, verticalAt(v))
				v = &refPoint{}
			} else {
				lambda := r.tangentSlope(v)
				f = r.gtMul(f, chordAt(v, lambda))
				v = r.chord(v, v, lambda)
			}
		}
		if r.p.R.Bit(i) == 0 {
			continue
		}
		switch {
		case v.inf():
			v = a
		case v.X.Cmp(a.X) == 0 && r.mod(new(big.Int).Add(v.Y, a.Y)).Sign() == 0:
			f = r.gtMul(f, verticalAt(v))
			v = &refPoint{}
		case v.X.Cmp(a.X) == 0:
			lambda := r.tangentSlope(v)
			f = r.gtMul(f, chordAt(v, lambda))
			v = r.chord(v, v, lambda)
		default:
			num := new(big.Int).Sub(a.Y, v.Y)
			den := r.mod(new(big.Int).Sub(a.X, v.X))
			den.ModInverse(den, r.p.P)
			lambda := r.mod(num.Mul(num, den))
			f = r.gtMul(f, chordAt(v, lambda))
			v = r.chord(v, a, lambda)
		}
	}
	// z^((p²−1)/r) = (conj(z)/z)^h.
	return r.gtExp(r.gtMul(r.gtConj(f), r.gtInv(f)), r.p.H)
}
