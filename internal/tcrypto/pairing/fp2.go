package pairing

import "math/big"

// GT is an element of the target group, represented in F_{p^2} as
// a + b·i with i^2 = −1, both coordinates in Montgomery form. Values
// returned by the exported API are never mutated afterwards; the pairing
// loops mutate their own accumulator in place.
type GT struct {
	f    *field
	a, b fe
}

// gtOne returns the multiplicative identity of F_{p^2}.
func (p *Params) gtOne() *GT {
	return &GT{f: p.fp, a: p.fp.one}
}

// IsOne reports whether g is the multiplicative identity.
func (g *GT) IsOne() bool {
	return g.a == g.f.one && g.b.isZero()
}

// mul sets g ← g·(c + d·i) using Karatsuba's three-multiplication form:
// ad + bc = (a+b)(c+d) − ac − bd. Field multiplications dominate the
// Miller loop, so one saved mult per product is ~25% off the loop.
func (g *GT) mul(c, d *fe) {
	f := g.f
	var ac, bd, s, t fe
	f.mul(&ac, &g.a, c)
	f.mul(&bd, &g.b, d)
	f.add(&s, &g.a, &g.b)
	f.add(&t, c, d)
	f.mul(&s, &s, &t)
	f.sub(&s, &s, &ac)
	f.sub(&g.b, &s, &bd)
	f.sub(&g.a, &ac, &bd)
}

// square sets g ← g²: (a+bi)² = (a−b)(a+b) + 2ab·i.
func (g *GT) square() {
	f := g.f
	var s, d fe
	f.add(&s, &g.a, &g.b)
	f.sub(&d, &g.a, &g.b)
	f.mul(&g.b, &g.a, &g.b)
	f.dbl(&g.b, &g.b)
	f.mul(&g.a, &s, &d)
}

// conj sets g ← a − b·i, which equals g^p (the Frobenius).
func (g *GT) conj() { g.f.neg(&g.b, &g.b) }

// invert sets g ← g⁻¹ = (a − bi)/(a² + b²), paying one field inversion.
func (g *GT) invert() {
	f := g.f
	var norm, bb fe
	f.sqr(&norm, &g.a)
	f.sqr(&bb, &g.b)
	f.add(&norm, &norm, &bb)
	f.inv(&norm, &norm)
	f.mul(&g.a, &g.a, &norm)
	f.mul(&g.b, &g.b, &norm)
	f.neg(&g.b, &g.b)
}

// exp sets g ← g^e for a non-negative exponent e.
func (g *GT) exp(e *big.Int) {
	base := *g
	g.a, g.b = g.f.one, fe{}
	for i := e.BitLen() - 1; i >= 0; i-- {
		g.square()
		if e.Bit(i) == 1 {
			g.mul(&base.a, &base.b)
		}
	}
}
