package pairing

import (
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Point is a point in G1, the order-r subgroup of E(F_p): y² = x³ + x,
// in affine coordinates on Montgomery limbs — or, from HashToCurve and
// ParseCurvePoint only, a point of E(F_p) outside G1. The zero value (nil
// field) is the point at infinity. Points are immutable: all operations
// allocate fresh results.
type Point struct {
	f    *field // nil marks the point at infinity
	x, y fe
}

// Infinity returns the identity element of G1.
func Infinity() *Point { return &Point{} }

// IsInfinity reports whether pt is the identity element.
func (pt *Point) IsInfinity() bool { return pt == nil || pt.f == nil }

// Equal reports whether two points are the same group element.
func (pt *Point) Equal(o *Point) bool {
	if pt.IsInfinity() || o.IsInfinity() {
		return pt.IsInfinity() && o.IsInfinity()
	}
	return pt.x == o.x && pt.y == o.y
}

// Clone returns a copy of pt.
func (pt *Point) Clone() *Point {
	if pt.IsInfinity() {
		return Infinity()
	}
	c := *pt
	return &c
}

// String renders the point for debugging.
func (pt *Point) String() string {
	if pt.IsInfinity() {
		return "G1(∞)"
	}
	return fmt.Sprintf("G1(%s, %s)", pt.f.toBig(&pt.x).Text(16), pt.f.toBig(&pt.y).Text(16))
}

// coordWidth is the byte width of one field element.
func (p *Params) coordWidth() int { return (p.P.BitLen() + 7) / 8 }

// PointSize returns the fixed byte length of a non-infinity point encoding
// (benchmarks use it to meter signature bytes without serializing).
func (p *Params) PointSize() int { return 1 + 2*p.coordWidth() }

// PointBytes returns a canonical encoding of pt: a one-byte tag (0 for
// infinity, 4 for affine) followed by fixed-width X and Y coordinates.
func (p *Params) PointBytes(pt *Point) []byte {
	w := p.coordWidth()
	out := make([]byte, 1+2*w)
	if pt.IsInfinity() {
		return out[:1]
	}
	out[0] = 4
	p.fp.putBytes(out[1:1+w], &pt.x)
	p.fp.putBytes(out[1+w:], &pt.y)
	return out
}

// errBadPoint reports a malformed, off-curve or out-of-subgroup encoding.
var errBadPoint = errors.New("pairing: invalid point encoding")

// ParsePoint decodes a point produced by PointBytes and admits it only in
// G1: it is ParseCurvePoint followed by the subgroup walk (InG1). Every
// point a node keeps or passes on comes through here — aggregate, config
// and metadata signatures and keys, and every point field of a wire
// message. The walk matters because the reduced pairing is trivial on
// the cofactor subgroup: for any T = r·Q ≠ ∞ there, σ + T verifies
// exactly like σ while encoding differently, which breaks the uniqueness
// of BLS signatures that bls.VerifyCache relies on.
func (p *Params) ParsePoint(data []byte) (*Point, error) {
	pt, err := p.ParseCurvePoint(data)
	if err != nil || !p.InG1(pt) {
		return nil, errBadPoint
	}
	return pt, nil
}

// ParseCurvePoint decodes a point produced by PointBytes and rejects
// encodings that are malformed, non-canonical or not on the curve. It does
// not walk the subgroup, so the point may lie outside G1: use it only for
// a point that is walked later before anything trusts it, as
// bls.ParseShares' shares are, whose combination CombineVerified walks
// before it returns it.
func (p *Params) ParseCurvePoint(data []byte) (*Point, error) {
	if len(data) == 1 && data[0] == 0 {
		return Infinity(), nil
	}
	w := p.coordWidth()
	if len(data) != 1+2*w || data[0] != 4 {
		return nil, errBadPoint
	}
	pt := &Point{f: p.fp}
	if !p.fp.fromBytes(&pt.x, data[1:1+w]) || !p.fp.fromBytes(&pt.y, data[1+w:]) || !p.IsOnCurve(pt) {
		return nil, errBadPoint
	}
	return pt, nil
}

// IsOnCurve reports whether pt satisfies y² = x³ + x over F_p. The point at
// infinity is on the curve.
func (p *Params) IsOnCurve(pt *Point) bool {
	if pt.IsInfinity() {
		return true
	}
	var lhs, rhs fe
	p.fp.sqr(&lhs, &pt.y)
	p.curveRHS(&rhs, &pt.x)
	return lhs == rhs
}

// curveRHS sets z = x³ + x.
func (p *Params) curveRHS(z, x *fe) {
	var t fe
	p.fp.sqr(&t, x)
	p.fp.mul(&t, &t, x)
	p.fp.add(z, &t, x)
}

// InG1 reports whether a curve point has order dividing r, by walking r
// on the ladder and testing the Z of r·P: no y-recovery, so no inversion.
func (p *Params) InG1(pt *Point) bool {
	if pt.IsInfinity() {
		return true
	}
	if pt.x.isZero() {
		return false // (0, 0) has order two, and r is odd
	}
	q, _ := p.ladder(pt, p.R)
	return q.z.isZero()
}

// Neg returns −pt.
func (p *Params) Neg(pt *Point) *Point {
	if pt.IsInfinity() {
		return Infinity()
	}
	out := &Point{f: pt.f, x: pt.x}
	p.fp.neg(&out.y, &pt.y)
	return out
}

// Add returns a + b in the curve group.
func (p *Params) Add(a, b *Point) *Point {
	if a.IsInfinity() {
		return b.Clone()
	}
	if b.IsInfinity() {
		return a.Clone()
	}
	j := p.fromAffine(a)
	p.jacAddAffine(&j, b, nil)
	return p.toAffine(&j)
}

// ScalarMul returns k·pt by one Montgomery-ladder walk and one inversion
// (see ladder.go). The scalar is reduced modulo the group order r and
// replaced by its balanced representative, kr or −(r − kr), whichever is
// shorter, so scalars that are small negative residues cost as little as
// small positive ones. On G1 — every point ParsePoint admits — the result
// is k·pt; on a point outside G1 it is that representative times pt.
func (p *Params) ScalarMul(pt *Point, k *big.Int) *Point {
	kr := new(big.Int).Mod(k, p.R)
	if kr.Sign() == 0 || pt.IsInfinity() {
		return Infinity()
	}
	kr, flip := p.balanced(kr)
	if flip {
		pt = p.Neg(pt)
	}
	return p.mul(pt, kr)
}

// ScalarBaseMul returns k·G for the canonical generator.
func (p *Params) ScalarBaseMul(k *big.Int) *Point {
	return p.ScalarMul(p.G, k)
}

// RandomScalar returns a uniformly random scalar in [1, r−1].
func (p *Params) RandomScalar(rand io.Reader) (*big.Int, error) {
	max := new(big.Int).Sub(p.R, big.NewInt(1))
	for {
		buf := make([]byte, (p.R.BitLen()+15)/8)
		if _, err := io.ReadFull(rand, buf); err != nil {
			return nil, fmt.Errorf("pairing: read random scalar: %w", err)
		}
		k := new(big.Int).SetBytes(buf)
		k.Mod(k, max)
		k.Add(k, big.NewInt(1))
		if k.Sign() > 0 {
			return k, nil
		}
	}
}
