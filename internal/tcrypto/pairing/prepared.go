package pairing

import "cicero/internal/metrics"

// prepLine is a Miller line of a prepared first argument, normalised so
// that at φ(b) it evaluates to (a·x_b + c) + y_b·i: one multiplication per
// line instead of the two a live line costs.
type prepLine struct {
	a, c fe
}

// PreparedPoint caches the Miller-loop line coefficients of f_{r,a} for a
// fixed first pairing argument a. Preparing pays the curve walk and the
// normalisation of its lines once; every subsequent PairPrepared or
// PairProduct against the prepared argument replays the cached lines with
// a handful of field multiplications per step instead of a point update.
// The generator G and long-lived public keys never change within a
// deployment, which makes their prepared forms the verification hot path.
// Prepared points are immutable and safe for concurrent use.
type PreparedPoint struct {
	a *Point
	// counts[i] is the number of lines (0 to 2: the doubling line, then
	// the addition line on set bits) Miller step i consumes from lines.
	// Both are nil for the point at infinity.
	counts []uint8
	lines  []prepLine
}

// Point returns the prepared argument.
func (pp *PreparedPoint) Point() *Point { return pp.a.Clone() }

// Prepare computes the Miller-loop line coefficients for a fixed first
// pairing argument. The walk is the one millerProduct runs for a live
// factor, recording each line instead of evaluating it; one batched
// inversion then normalises all of them.
func (p *Params) Prepare(a *Point) *PreparedPoint {
	if a.IsInfinity() {
		return &PreparedPoint{a: Infinity()}
	}
	metrics.Crypto.PointPrepares.Add(1)
	fp := p.fp
	steps := p.R.BitLen() - 1
	prep := &PreparedPoint{
		a:      a.Clone(),
		counts: make([]uint8, steps),
		lines:  make([]prepLine, 0, 2*steps),
	}
	// ds[k] is line k's y_b coefficient; pre[k] = ds[0]·…·ds[k].
	ds := make([]fe, 0, 2*steps)
	pre := make([]fe, 0, 2*steps)
	record := func(step int, ln *line) {
		prep.counts[step]++
		prep.lines = append(prep.lines, prepLine{a: ln.a, c: ln.c})
		ds = append(ds, ln.d)
		acc := ln.d
		if len(pre) > 0 {
			fp.mul(&acc, &acc, &pre[len(pre)-1])
		}
		pre = append(pre, acc)
	}
	v := p.fromAffine(a)
	var ln line
	for step := 0; step < steps; step++ {
		if p.jacDouble(&v, &ln) {
			record(step, &ln)
		}
		if p.R.Bit(steps-1-step) == 1 && p.jacAddAffine(&v, a, &ln) {
			record(step, &ln)
		}
	}
	if len(pre) == 0 {
		return prep
	}
	// Montgomery's trick: invert the running product once, then peel one
	// factor per line going backwards.
	var inv, dInv fe
	fp.inv(&inv, &pre[len(pre)-1])
	for k := len(ds) - 1; k >= 0; k-- {
		dInv = inv
		if k > 0 {
			fp.mul(&dInv, &inv, &pre[k-1])
			fp.mul(&inv, &inv, &ds[k])
		}
		fp.mul(&prep.lines[k].a, &prep.lines[k].a, &dInv)
		fp.mul(&prep.lines[k].c, &prep.lines[k].c, &dInv)
	}
	return prep
}

// PairPrepared computes e(a, b) for a prepared first argument, replaying
// the cached Miller lines against φ(b). It agrees with Pair(a, b) on all
// inputs while skipping the curve walk.
func (p *Params) PairPrepared(prep *PreparedPoint, b *Point) *GT {
	fc, ok := p.newFactor(prep, nil, b)
	if !ok {
		return p.gtOne()
	}
	metrics.Crypto.PreparedPairings.Add(1)
	return p.millerProduct([]factor{fc})
}

// ProductTerm is one factor e(first, B) of a pairing product. The first
// argument is the cached Prep when non-nil, otherwise the live point A
// (walked inside the product's loop). B is the evaluation point.
type ProductTerm struct {
	Prep *PreparedPoint
	A    *Point
	B    *Point
}

// PairProduct computes ∏ᵢ e(aᵢ, bᵢ) with a single shared Miller squaring
// chain and one final exponentiation. Because every Miller loop walks the
// same scalar r, the accumulators satisfy (f₁·f₂)² = f₁²·f₂²: one
// squaring per bit covers all factors, and the final exponentiation —
// roughly a third of a full pairing — is paid once instead of per factor.
//
// The signature-verification equation e(σ, G) == e(H(m), X) becomes the
// single product check e(G, σ)·e(X, −H(m)) == 1 (using symmetry of the
// Type-A pairing), with G and X prepared.
func (p *Params) PairProduct(terms ...ProductTerm) *GT {
	facs := make([]factor, 0, len(terms))
	for _, t := range terms {
		if fc, ok := p.newFactor(t.Prep, t.A, t.B); ok {
			facs = append(facs, fc)
		}
	}
	if len(facs) == 0 {
		return p.gtOne()
	}
	metrics.Crypto.PairingProducts.Add(1)
	return p.millerProduct(facs)
}
