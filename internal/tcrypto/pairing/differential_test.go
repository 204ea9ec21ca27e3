package pairing

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// Differential tests: the limb arithmetic against the math/big reference
// in oracle_test.go, for both limb counts.

func bothParams() []*Params { return []*Params{Fast254(), Std512()} }

func paramsName(p *Params) string { return fmt.Sprintf("p%d", p.P.BitLen()) }

// edgeValues are field elements that stress carries and the final
// conditional subtraction: 0, 1, 2, p−1, p−2, and limb patterns of all
// ones (2^64k − 1) reduced into the field.
func edgeValues(p *Params) []*big.Int {
	one := big.NewInt(1)
	vals := []*big.Int{
		new(big.Int), one, big.NewInt(2),
		new(big.Int).Sub(p.P, one), new(big.Int).Sub(p.P, big.NewInt(2)),
		new(big.Int).Rsh(p.P, 1),
	}
	for k := 1; k <= p.fp.n; k++ {
		ones := new(big.Int).Lsh(one, uint(64*k))
		ones.Sub(ones, one)
		vals = append(vals, ones.Mod(ones, p.P))
		hi := new(big.Int).Lsh(one, uint(64*k-1))
		vals = append(vals, hi.Mod(hi, p.P))
	}
	return vals
}

// fieldOp applies one base-field operation on limbs and on big.Int and
// returns both results as integers in [0, p). Shared by the table test
// and FuzzFieldOps.
func fieldOp(p *Params, op uint8, a, b *big.Int) (name string, got, want *big.Int) {
	f := p.fp
	var x, y, z fe
	f.fromBig(&x, a)
	f.fromBig(&y, b)
	want = new(big.Int)
	switch op % fieldOps {
	case 0:
		name = "add"
		f.add(&z, &x, &y)
		want.Add(a, b)
	case 1:
		name = "sub"
		f.sub(&z, &x, &y)
		want.Sub(a, b)
	case 2:
		name = "neg"
		f.neg(&z, &x)
		want.Neg(a)
	case 3:
		name = "mul"
		f.mul(&z, &x, &y)
		want.Mul(a, b)
	case 4:
		name = "sqr"
		f.sqr(&z, &x)
		want.Mul(a, a)
	case 5:
		name = "inv"
		f.inv(&z, &x)
		if a.Sign() != 0 {
			want.ModInverse(a, p.P)
		}
	case 6:
		name = "sqrt-exp"
		f.exp(&z, &x, &p.sqrtExp)
		want.Exp(a, sqrtExponent(p.P), p.P)
	case 7:
		name = "dbl-aliased"
		z = x
		f.dbl(&z, &z)
		f.mul(&z, &z, &z)
		want.Lsh(a, 1)
		want.Mul(want, want)
	case 8:
		return "legendre", big.NewInt(int64(f.legendre(&x))), big.NewInt(int64(big.Jacobi(a, p.P)))
	}
	return name, f.toBig(&z), want.Mod(want, p.P)
}

// fieldOps is the number of operations fieldOp numbers.
const fieldOps = 9

func TestFieldOpsMatchBig(t *testing.T) {
	for _, p := range threeFields() {
		t.Run(paramsName(p), func(t *testing.T) {
			vals := sampleValues(p, 1, 40)
			for _, a := range vals {
				for _, b := range vals {
					for op := uint8(0); op < fieldOps; op++ {
						if name, got, want := fieldOp(p, op, a, b); got.Cmp(want) != 0 {
							t.Fatalf("%s(%x, %x) = %x, want %x", name, a, b, got, want)
						}
						if name, ok := kernelMatchesLoop(p.fp, op, a, b); !ok {
							t.Fatalf("%s(%x, %x): kernel and loop differ", name, a, b)
						}
					}
				}
			}
		})
	}
}

func TestMontgomeryRoundTrip(t *testing.T) {
	for _, p := range bothParams() {
		f := p.fp
		rng := rand.New(rand.NewSource(2))
		vals := edgeValues(p)
		for i := 0; i < 200; i++ {
			vals = append(vals, new(big.Int).Rand(rng, p.P))
		}
		w := p.coordWidth()
		for _, a := range vals {
			var x, y fe
			f.fromBig(&x, a)
			if got := f.toBig(&x); got.Cmp(a) != 0 {
				t.Fatalf("%s: big round trip of %x gave %x", paramsName(p), a, got)
			}
			enc := make([]byte, w)
			f.putBytes(enc, &x)
			if !bytes.Equal(enc, a.FillBytes(make([]byte, w))) {
				t.Fatalf("%s: putBytes(%x) = %x", paramsName(p), a, enc)
			}
			if !f.fromBytes(&y, enc) || y != x {
				t.Fatalf("%s: fromBytes(putBytes(%x)) differs", paramsName(p), a)
			}
		}
		// Non-canonical encodings (p and above) are refused.
		for _, over := range []*big.Int{p.P, new(big.Int).Add(p.P, big.NewInt(1))} {
			if over.BitLen() > 8*w {
				continue
			}
			var y fe
			if f.fromBytes(&y, over.FillBytes(make([]byte, w))) {
				t.Fatalf("%s: fromBytes accepted %x ≥ p", paramsName(p), over)
			}
		}
		var y fe
		if f.fromBytes(&y, bytes.Repeat([]byte{0xff}, w)) {
			t.Fatalf("%s: fromBytes accepted the all-ones encoding", paramsName(p))
		}
	}
}

// liftX returns the curve point with x-coordinate x ∈ [0, p), taking the
// other square root when neg is set; ok is false when x³ + x is not a
// square.
func liftX(p *Params, x *big.Int, neg bool) (pt *Point, ok bool) {
	pt = &Point{f: p.fp}
	p.fp.fromBig(&pt.x, x)
	var y2 fe
	p.curveRHS(&y2, &pt.x)
	p.fp.exp(&pt.y, &y2, &p.sqrtExp)
	if neg {
		p.fp.neg(&pt.y, &pt.y)
	}
	return pt, p.IsOnCurve(pt)
}

// randomCurvePoint returns a point of E(F_p) that is (almost surely) not
// in G1: try-and-increment without cofactor clearing.
func randomCurvePoint(p *Params, rng *rand.Rand) *Point {
	for {
		if pt, ok := liftX(p, new(big.Int).Rand(rng, p.P), false); ok {
			return pt
		}
	}
}

// cofactorPoint returns T = r·Q ≠ ∞ for a random curve point Q: a point
// of the cofactor subgroup, on which the reduced pairing is trivial.
func cofactorPoint(p *Params, rng *rand.Rand) *Point {
	r := ref{p}
	for {
		if t := r.scalarMul(r.point(randomCurvePoint(p, rng)), p.R); !t.inf() {
			return r.limbPoint(t)
		}
	}
}

// orderFourPoint returns a point with x = ±1. There
// x(2P) = (x² − 1)²/(4x(x² + 1)) = 0, so 2P = (0, 0) and P has order four.
// One of x = 1 (y² = 2) and x = −1 (y² = −2) is on the curve, because −1
// is not a square when p ≡ 3 (mod 4).
func orderFourPoint(p *Params) *Point {
	if pt, ok := liftX(p, big.NewInt(1), false); ok {
		return pt
	}
	pt, _ := liftX(p, new(big.Int).Sub(p.P, big.NewInt(1)), false)
	return pt
}

// balancedMul is ScalarMul's contract on the reference: k is reduced
// modulo r and replaced by the shorter of kr and −(r − kr), which makes a
// difference only for a point outside G1.
func (r ref) balancedMul(pt *refPoint, k *big.Int) *refPoint {
	kr := new(big.Int).Mod(k, r.p.R)
	if neg := new(big.Int).Sub(r.p.R, kr); kr.Sign() != 0 && neg.BitLen() < kr.BitLen() {
		return r.scalarMul(r.neg(pt), neg)
	}
	return r.scalarMul(pt, kr)
}

func TestJacobianStepsMatchReference(t *testing.T) {
	for _, p := range bothParams() {
		t.Run(paramsName(p), func(t *testing.T) {
			r := ref{p}
			rng := rand.New(rand.NewSource(3))
			order2 := &Point{f: p.fp} // (0, 0): y = 0, so 2·(0,0) = ∞
			if !p.IsOnCurve(order2) {
				t.Fatal("(0, 0) should be on y² = x³ + x")
			}
			pts := []*Point{p.G, order2}
			for i := 0; i < 6; i++ {
				pts = append(pts, randomCurvePoint(p, rng))
			}
			for _, a := range pts {
				// Walk a few steps so Z ≠ 1, then try every second operand,
				// including a itself (the doubling inside add), −a, and
				// the order-two point.
				for steps := 0; steps < 3; steps++ {
					j := jacPoint{x: a.x, y: a.y, z: p.fp.one}
					rj := &refJac{x: r.point(a).X, y: r.point(a).Y, z: big.NewInt(1)}
					for s := 0; s < steps; s++ {
						p.jacDouble(&j, nil)
						rj = r.jacDouble(rj)
						p.jacAddAffine(&j, a, nil)
						rj = r.jacAddAffine(rj, r.point(a))
					}
					cur := p.toAffine(&j)
					if !r.samePoint(cur, r.toAffine(rj)) {
						t.Fatalf("walk of %d steps diverged", steps)
					}
					d := j
					p.jacDouble(&d, nil)
					if !r.samePoint(p.toAffine(&d), r.toAffine(r.jacDouble(rj))) {
						t.Fatal("jacDouble differs from reference")
					}
					seconds := append([]*Point{cur, p.Neg(cur), a, p.Neg(a)}, pts...)
					for _, b := range seconds {
						if b.IsInfinity() {
							continue
						}
						s := j
						p.jacAddAffine(&s, b, nil)
						want := r.toAffine(r.jacAddAffine(rj, r.point(b)))
						if !r.samePoint(p.toAffine(&s), want) {
							t.Fatal("jacAddAffine differs from reference")
						}
						if !r.samePoint(p.Add(cur, b), r.add(r.point(cur), r.point(b))) {
							t.Fatal("Add differs from reference")
						}
					}
					if !r.samePoint(p.Double(cur), r.double(r.point(cur))) {
						t.Fatal("Double differs from reference")
					}
				}
			}
			// Adding into infinity re-seeds; doubling infinity stays there.
			var inf jacPoint
			p.jacDouble(&inf, nil)
			if !p.toAffine(&inf).IsInfinity() {
				t.Fatal("2·∞ ≠ ∞")
			}
			p.jacAddAffine(&inf, p.G, nil)
			if !p.toAffine(&inf).Equal(p.G) {
				t.Fatal("∞ + G ≠ G")
			}
		})
	}
}

func TestGTOpsMatchReference(t *testing.T) {
	for _, p := range bothParams() {
		t.Run(paramsName(p), func(t *testing.T) {
			r := ref{p}
			rng := rand.New(rand.NewSource(4))
			vals := edgeValues(p)[:6]
			for i := 0; i < 6; i++ {
				vals = append(vals, new(big.Int).Rand(rng, p.P))
			}
			var elems []*refGT
			for _, a := range vals {
				for _, b := range vals {
					elems = append(elems, &refGT{A: a, B: b})
				}
			}
			e := new(big.Int).Rand(rng, p.R)
			for i, x := range elems {
				y := elems[(i*7+3)%len(elems)]
				g := r.limbGT(x)
				g.mul(&r.limbGT(y).a, &r.limbGT(y).b)
				if !r.sameGT(g, r.gtMul(x, y)) {
					t.Fatal("gt mul differs from reference")
				}
				g = r.limbGT(x)
				g.square()
				if !r.sameGT(g, r.gtSquare(x)) {
					t.Fatal("gt square differs from reference")
				}
				g = r.limbGT(x)
				g.conj()
				if !r.sameGT(g, r.gtConj(x)) {
					t.Fatal("gt conj differs from reference")
				}
				if x.A.Sign() != 0 || x.B.Sign() != 0 {
					g = r.limbGT(x)
					g.invert()
					if !r.sameGT(g, r.gtInv(x)) {
						t.Fatal("gt invert differs from reference")
					}
				}
				if i%9 == 0 {
					g = r.limbGT(x)
					g.exp(e)
					if !r.sameGT(g, r.gtExp(x, e)) {
						t.Fatal("gt exp differs from reference")
					}
				}
			}
		})
	}
}

// TestPairingMatchesReference checks the inversion-free Miller loop — live,
// prepared, and as a product — against the textbook affine loop, including
// first arguments outside G1 where the walk meets its degenerate branches.
func TestPairingMatchesReference(t *testing.T) {
	for _, p := range bothParams() {
		t.Run(paramsName(p), func(t *testing.T) {
			r := ref{p}
			rng := rand.New(rand.NewSource(5))
			n := 6
			if p.fp.n > 4 {
				n = 2
			}
			for i := 0; i < n; i++ {
				a := p.ScalarBaseMul(new(big.Int).Rand(rng, p.R))
				b := p.HashToG1([]byte{byte(i)})
				want := r.pair(r.point(a), r.point(b))
				if !r.sameGT(p.Pair(a, b), want) {
					t.Fatal("Pair differs from reference")
				}
				if !r.sameGT(p.PairPrepared(p.Prepare(a), b), want) {
					t.Fatal("PairPrepared differs from reference")
				}
				c := p.HashToG1([]byte{byte(i), 1})
				prod := p.PairProduct(ProductTerm{Prep: p.Prepare(a), B: b}, ProductTerm{A: c, B: a})
				if !r.sameGT(prod, r.gtMul(want, r.pair(r.point(c), r.point(a)))) {
					t.Fatal("PairProduct differs from reference")
				}
			}
			// The reduced pairing is trivial on a second argument from
			// the cofactor subgroup (r·Q lies in r·E), which is what made
			// σ + T verify like σ; and it still agrees with the reference
			// on arbitrary curve points in either slot.
			b := p.HashToG1([]byte("b"))
			tp := cofactorPoint(p, rng)
			if !p.Pair(b, tp).IsOne() || !p.PairPrepared(p.Prepare(b), tp).IsOne() {
				t.Fatal("pairing is not trivial on the cofactor subgroup")
			}
			q := randomCurvePoint(p, rng)
			if !r.sameGT(p.Pair(q, b), r.pair(r.point(q), r.point(b))) {
				t.Fatal("Pair differs from reference with a first argument outside G1")
			}
			if !r.sameGT(p.Pair(b, q), r.pair(r.point(b), r.point(q))) {
				t.Fatal("Pair differs from reference with a second argument outside G1")
			}
			if !r.sameGT(p.PairPrepared(p.Prepare(tp), b), r.pair(r.point(tp), r.point(b))) {
				t.Fatal("PairPrepared differs from reference with a first argument in the cofactor subgroup")
			}
		})
	}
}

// TestScalarMulMatchesReference checks ScalarMul on G1 points and random
// scalars below r, then ScalarMul and the unreduced ladder walk under it
// on points outside G1 — a random curve point, a cofactor-subgroup point,
// (0, 0) and an order-four point — with scalars beyond r, among them h
// and multiples of each point's order, where the walk passes through ∞.
func TestScalarMulMatchesReference(t *testing.T) {
	for _, p := range bothParams() {
		r := ref{p}
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < 4; i++ {
			k := new(big.Int).Rand(rng, p.R)
			pt := p.HashToG1([]byte{byte(i)})
			if !r.samePoint(p.ScalarMul(pt, k), r.scalarMul(r.point(pt), k)) {
				t.Fatalf("%s: ScalarMul differs from reference", paramsName(p))
			}
		}
		one := big.NewInt(1)
		pp1 := new(big.Int).Add(p.P, one)
		scalars := []*big.Int{
			new(big.Int).Add(p.R, big.NewInt(5)), p.H, new(big.Int).Sub(p.H, one),
			p.P, pp1, new(big.Int).Rand(rng, new(big.Int).Lsh(pp1, 1)),
			big.NewInt(4), big.NewInt(7),
		}
		points := []*Point{randomCurvePoint(p, rng), cofactorPoint(p, rng), {f: p.fp}, orderFourPoint(p), p.G}
		for pi, pt := range points {
			for _, k := range scalars {
				if !r.samePoint(p.ScalarMul(pt, k), r.balancedMul(r.point(pt), k)) {
					t.Fatalf("%s: ScalarMul(point %d, %x) differs from reference", paramsName(p), pi, k)
				}
				if !r.samePoint(p.mul(pt, k), r.scalarMul(r.point(pt), k)) {
					t.Fatalf("%s: ladder walk of %x on point %d differs from reference", paramsName(p), k, pi)
				}
			}
		}
	}
}

// FuzzFieldOps checks one base-field operation on two fuzzed elements
// against big.Int on both limb counts, and at four limbs — the 254-bit
// field and the full-width 2²⁵⁶ − 189 — the kernel against the looped code
// as well, limb for limb. The binary GCD behind inv (against
// big.Int.ModInverse) and legendre (against big.Jacobi) is seeded with 0,
// 1, p − 1, a square and a non-square of each field.
func FuzzFieldOps(f *testing.F) {
	f.Add([]byte{0}, []byte{1}, uint8(3))
	f.Add(bytes.Repeat([]byte{0xff}, 64), bytes.Repeat([]byte{0xff}, 64), uint8(3))
	f.Add(bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{0x80}, 32), uint8(1))
	fields := threeFields()
	for _, p := range fields {
		pm1 := new(big.Int).Sub(p.P, big.NewInt(1)).Bytes()
		for op := uint8(0); op < 8; op++ {
			f.Add(pm1, pm1, op)
		}
	}
	for _, p := range fields {
		one := big.NewInt(1)
		sq := new(big.Int).Exp(big.NewInt(0xc1c), big.NewInt(2), p.P)
		nonSq := new(big.Int).Sub(p.P, sq) // −1 is not a square when p ≡ 3 (mod 4)
		for _, a := range []*big.Int{new(big.Int), one, new(big.Int).Sub(p.P, one), sq, nonSq} {
			f.Add(a.Bytes(), one.Bytes(), uint8(5))
			f.Add(a.Bytes(), one.Bytes(), uint8(8))
		}
	}
	f.Fuzz(func(t *testing.T, ab, bb []byte, op uint8) {
		if len(ab) > 80 || len(bb) > 80 {
			return
		}
		for _, p := range fields {
			a := new(big.Int).SetBytes(ab)
			b := new(big.Int).SetBytes(bb)
			a.Mod(a, p.P)
			b.Mod(b, p.P)
			if name, got, want := fieldOp(p, op, a, b); got.Cmp(want) != 0 {
				t.Fatalf("%s %s(%x, %x) = %x, want %x", paramsName(p), name, a, b, got, want)
			}
			if name, ok := kernelMatchesLoop(p.fp, op, a, b); !ok {
				t.Fatalf("%s %s(%x, %x): kernel and loop differ", paramsName(p), name, a, b)
			}
		}
	})
}

// FuzzParsePoint checks the wire decoder: it never panics, it accepts
// exactly the canonical encodings of points that are on the curve and in
// G1 (judged by the math/big reference), and what it accepts re-encodes
// to the same bytes.
func FuzzParsePoint(f *testing.F) {
	p := Fast254()
	r := ref{p}
	rng := rand.New(rand.NewSource(7))
	f.Add([]byte{0})
	f.Add([]byte{4})
	f.Add(p.PointBytes(p.G))
	f.Add(p.PointBytes(p.HashToG1([]byte("seed"))))
	f.Add(p.PointBytes(randomCurvePoint(p, rng)))
	f.Add(p.PointBytes(p.Add(p.G, cofactorPoint(p, rng))))
	f.Add(p.PointBytes(&Point{f: p.fp})) // (0, 0), order two
	f.Add(append([]byte{4}, bytes.Repeat([]byte{0xff}, 2*p.coordWidth())...))
	f.Fuzz(func(t *testing.T, data []byte) {
		pt, err := p.ParsePoint(data)
		w := p.coordWidth()
		want := len(data) == 1 && data[0] == 0
		if len(data) == 1+2*w && data[0] == 4 {
			x := new(big.Int).SetBytes(data[1 : 1+w])
			y := new(big.Int).SetBytes(data[1+w:])
			rp := &refPoint{X: x, Y: y}
			want = x.Cmp(p.P) < 0 && y.Cmp(p.P) < 0 && r.onCurve(rp) && r.scalarMul(rp, p.R).inf()
		}
		if (err == nil) != want {
			t.Fatalf("ParsePoint(%x): err = %v, reference says valid = %v", data, err, want)
		}
		if err == nil && !bytes.Equal(p.PointBytes(pt), data) {
			t.Fatalf("ParsePoint(%x) re-encodes to %x", data, p.PointBytes(pt))
		}
	})
}

// FuzzScalarMul checks every single-scalar walk against the math/big
// reference on both parameter sets: ScalarMul, the unreduced walk that
// clears the cofactor, the subgroup check and HashToG1Mul. The point is
// the fuzzed x lifted to the curve, either root, when x³ + x is a square:
// almost always outside G1, and (0, 0) or an order-four point at x = 0
// and x = ±1. The scalar is any integer up to 2·(p+1).
func FuzzScalarMul(f *testing.F) {
	for _, p := range bothParams() {
		one := big.NewInt(1)
		xs := [][]byte{{0}, {1}, new(big.Int).Sub(p.P, one).Bytes(), p.fp.toBig(&p.G.x).Bytes(), []byte("x")}
		hr := new(big.Int).Mul(p.H, p.R)
		ks := []*big.Int{new(big.Int), one, big.NewInt(2), new(big.Int).Sub(p.R, one), p.R,
			new(big.Int).Add(p.R, one), p.H, hr.Sub(hr, one)}
		for i, k := range ks {
			f.Add(xs[i%len(xs)], i%2 == 1, k.Bytes())
		}
	}
	params := bothParams()
	f.Fuzz(func(t *testing.T, xb []byte, neg bool, kb []byte) {
		if len(xb) > 80 || len(kb) > 80 {
			return
		}
		for _, p := range params {
			r := ref{p}
			limit := new(big.Int).Add(p.P, big.NewInt(1))
			limit.Lsh(limit, 1).Add(limit, big.NewInt(1))
			k := new(big.Int).SetBytes(kb)
			k.Mod(k, limit)
			x := new(big.Int).SetBytes(xb)
			if pt, ok := liftX(p, x.Mod(x, p.P), neg); ok {
				rp := r.point(pt)
				if !r.samePoint(p.ScalarMul(pt, k), r.balancedMul(rp, k)) {
					t.Fatalf("%s: ScalarMul(%v, %x) differs from reference", paramsName(p), pt, k)
				}
				if !r.samePoint(p.mul(pt, p.H), r.scalarMul(rp, p.H)) {
					t.Fatalf("%s: cofactor walk of %v differs from reference", paramsName(p), pt)
				}
				if !r.samePoint(p.mul(pt, k), r.scalarMul(rp, k)) {
					t.Fatalf("%s: ladder walk of %x on %v differs from reference", paramsName(p), k, pt)
				}
				if got, want := p.InG1(pt), r.scalarMul(rp, p.R).inf(); got != want {
					t.Fatalf("%s: InG1(%v) = %v, reference says %v", paramsName(p), pt, got, want)
				}
			}
			// HashToG1Mul against clearing the candidate on the reference,
			// then multiplying by k mod r. h·c = ∞ (probability ≈ 1/r)
			// would send HashToG1Mul to the next counter; skip it.
			hc := r.scalarMul(r.point(p.HashToCurve(xb)), p.H)
			if hc.inf() {
				return
			}
			if !r.samePoint(p.HashToG1Mul(xb, k), r.scalarMul(hc, new(big.Int).Mod(k, p.R))) {
				t.Fatalf("%s: HashToG1Mul(%x, %x) differs from reference", paramsName(p), xb, k)
			}
		}
	})
}
