package pairing

import (
	"bytes"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

// testParams returns the small parameter set; the heavy 512-bit set is
// exercised separately in TestStd512Bilinear.
func testParams() *Params { return Fast254() }

func TestParamsSanity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params *Params
	}{
		{"fast254", Fast254()},
		{"std512", Std512()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.params
			if !p.R.ProbablyPrime(32) {
				t.Fatal("r is not prime")
			}
			if !p.P.ProbablyPrime(32) {
				t.Fatal("p is not prime")
			}
			if !p.IsOnCurve(p.G) {
				t.Fatal("generator not on curve")
			}
			if p.G.IsInfinity() {
				t.Fatal("generator is the identity")
			}
			if !p.ScalarMul(p.G, p.R).IsInfinity() {
				t.Fatal("generator order does not divide r")
			}
		})
	}
}

func TestGroupLaws(t *testing.T) {
	p := testParams()
	a, _ := p.RandomScalar(rand.Reader)
	b, _ := p.RandomScalar(rand.Reader)
	A := p.ScalarBaseMul(a)
	B := p.ScalarBaseMul(b)

	// Commutativity.
	if !p.Add(A, B).Equal(p.Add(B, A)) {
		t.Error("addition is not commutative")
	}
	// Associativity with a third point.
	c, _ := p.RandomScalar(rand.Reader)
	C := p.ScalarBaseMul(c)
	if !p.Add(p.Add(A, B), C).Equal(p.Add(A, p.Add(B, C))) {
		t.Error("addition is not associative")
	}
	// Identity.
	if !p.Add(A, Infinity()).Equal(A) {
		t.Error("identity law violated")
	}
	// Inverse.
	if !p.Add(A, p.Neg(A)).IsInfinity() {
		t.Error("inverse law violated")
	}
	// Distributivity of scalar mult: (a+b)G == aG + bG.
	sum := new(big.Int).Add(a, b)
	if !p.ScalarBaseMul(sum).Equal(p.Add(A, B)) {
		t.Error("scalar multiplication does not distribute")
	}
	// Doubling consistency.
	if !p.Double(A).Equal(p.Add(A, A)) {
		t.Error("double != add self")
	}
}

func TestScalarMulEdgeCases(t *testing.T) {
	p := testParams()
	if !p.ScalarBaseMul(big.NewInt(0)).IsInfinity() {
		t.Error("0*G should be infinity")
	}
	if !p.ScalarBaseMul(p.R).IsInfinity() {
		t.Error("r*G should be infinity")
	}
	if !p.ScalarBaseMul(big.NewInt(1)).Equal(p.G) {
		t.Error("1*G should be G")
	}
	// Scalars reduce mod r.
	k := big.NewInt(12345)
	kPlusR := new(big.Int).Add(k, p.R)
	if !p.ScalarBaseMul(k).Equal(p.ScalarBaseMul(kPlusR)) {
		t.Error("scalar multiplication should reduce mod r")
	}
	if !p.ScalarMul(Infinity(), k).IsInfinity() {
		t.Error("k*infinity should be infinity")
	}
}

func TestPointEncodingRoundTrip(t *testing.T) {
	p := testParams()
	k, _ := p.RandomScalar(rand.Reader)
	pt := p.ScalarBaseMul(k)
	enc := p.PointBytes(pt)
	dec, err := p.ParsePoint(enc)
	if err != nil {
		t.Fatalf("ParsePoint: %v", err)
	}
	if !dec.Equal(pt) {
		t.Fatal("round-trip mismatch")
	}
	if !bytes.Equal(p.PointBytes(dec), enc) {
		t.Fatal("re-encoding mismatch")
	}

	// Infinity round-trips.
	encInf := p.PointBytes(Infinity())
	decInf, err := p.ParsePoint(encInf)
	if err != nil || !decInf.IsInfinity() {
		t.Fatalf("infinity round-trip failed: %v", err)
	}
}

func TestParsePointRejectsGarbage(t *testing.T) {
	p := testParams()
	cases := [][]byte{
		nil,
		{},
		{1},
		make([]byte, 5),
		make([]byte, 1+2*p.coordWidth()), // tag 0 with trailing bytes
	}
	// Off-curve point: valid structure, wrong Y.
	pt := p.G.Clone()
	p.fp.add(&pt.y, &pt.y, &p.fp.one)
	bad := p.PointBytes(pt)
	cases = append(cases, bad)
	// On the curve but outside G1: an arbitrary curve point, a point of
	// the cofactor subgroup, a G1 point shifted by one, and (0, 0).
	rng := mrand.New(mrand.NewSource(8))
	tw := cofactorPoint(p, rng)
	cases = append(cases,
		p.PointBytes(randomCurvePoint(p, rng)),
		p.PointBytes(tw),
		p.PointBytes(p.Add(p.G, tw)),
		p.PointBytes(&Point{f: p.fp}),
	)
	for i, c := range cases {
		if _, err := p.ParsePoint(c); err == nil {
			t.Errorf("case %d: expected error for invalid encoding", i)
		}
	}
}

func TestPairBilinear(t *testing.T) {
	p := testParams()
	a, _ := p.RandomScalar(rand.Reader)
	b, _ := p.RandomScalar(rand.Reader)

	base := p.Pair(p.G, p.G)
	if base.IsOne() {
		t.Fatal("pairing is degenerate: e(G, G) == 1")
	}

	// e(aG, bG) == e(G, G)^(ab)
	left := p.Pair(p.ScalarBaseMul(a), p.ScalarBaseMul(b))
	ab := new(big.Int).Mul(a, b)
	right := p.GTExp(base, ab)
	if !left.Equal(right) {
		t.Fatal("bilinearity violated: e(aG, bG) != e(G, G)^(ab)")
	}

	// Symmetry: e(P, Q) == e(Q, P).
	P := p.ScalarBaseMul(a)
	Q := p.ScalarBaseMul(b)
	if !p.Pair(P, Q).Equal(p.Pair(Q, P)) {
		t.Fatal("pairing is not symmetric")
	}

	// Linearity in the first argument: e(P+Q, G) == e(P, G)·e(Q, G).
	lhs := p.Pair(p.Add(P, Q), p.G)
	rhs := p.GTMul(p.Pair(P, p.G), p.Pair(Q, p.G))
	if !lhs.Equal(rhs) {
		t.Fatal("pairing is not linear in the first argument")
	}

	// Identity maps to one.
	if !p.Pair(Infinity(), Q).IsOne() {
		t.Fatal("e(∞, Q) != 1")
	}
	if !p.Pair(P, Infinity()).IsOne() {
		t.Fatal("e(P, ∞) != 1")
	}
}

func TestPairWithHashedPoints(t *testing.T) {
	p := testParams()
	// BLS core identity: e(x·H(m), G) == e(H(m), x·G).
	x, _ := p.RandomScalar(rand.Reader)
	hm := p.HashToG1([]byte("network update payload"))
	sig := p.ScalarMul(hm, x)
	pk := p.ScalarBaseMul(x)
	if !p.Pair(sig, p.G).Equal(p.Pair(hm, pk)) {
		t.Fatal("BLS verification identity fails")
	}
}

func TestStd512Bilinear(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 512-bit pairing in short mode")
	}
	p := Std512()
	a := big.NewInt(7919)
	b := big.NewInt(104729)
	left := p.Pair(p.ScalarBaseMul(a), p.ScalarBaseMul(b))
	right := p.GTExp(p.Pair(p.G, p.G), new(big.Int).Mul(a, b))
	if !left.Equal(right) {
		t.Fatal("bilinearity violated on 512-bit parameters")
	}
}

func TestHashToG1Deterministic(t *testing.T) {
	p := testParams()
	a := p.HashToG1([]byte("hello"))
	b := p.HashToG1([]byte("hello"))
	c := p.HashToG1([]byte("world"))
	if !a.Equal(b) {
		t.Fatal("hash-to-curve is not deterministic")
	}
	if a.Equal(c) {
		t.Fatal("distinct messages hashed to the same point")
	}
	if !p.IsOnCurve(a) || !p.ScalarMul(a, p.R).IsInfinity() {
		t.Fatal("hashed point not in the order-r subgroup")
	}
}

func TestHashToScalarRange(t *testing.T) {
	p := testParams()
	cfg := &quick.Config{MaxCount: 64}
	f := func(msg []byte) bool {
		s := p.HashToScalar(msg)
		return s.Sign() >= 0 && s.Cmp(p.R) < 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPairingHomomorphismProperty exercises the algebra the threshold
// scheme rests on: Lagrange combination commutes with the pairing.
func TestPairingHomomorphismProperty(t *testing.T) {
	p := testParams()
	hm := p.HashToG1([]byte("m"))
	x1, _ := p.RandomScalar(rand.Reader)
	x2, _ := p.RandomScalar(rand.Reader)
	// σ = x1·H + x2·H should verify against pk = (x1+x2)·G.
	sigma := p.Add(p.ScalarMul(hm, x1), p.ScalarMul(hm, x2))
	sum := new(big.Int).Add(x1, x2)
	pk := p.ScalarBaseMul(sum)
	if !p.Pair(sigma, p.G).Equal(p.Pair(hm, pk)) {
		t.Fatal("signature shares do not combine homomorphically")
	}
}

func BenchmarkPairFast254(b *testing.B) {
	p := Fast254()
	P := p.ScalarBaseMul(big.NewInt(123456789))
	Q := p.ScalarBaseMul(big.NewInt(987654321))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Pair(P, Q)
	}
}

func BenchmarkPairStd512(b *testing.B) {
	p := Std512()
	P := p.ScalarBaseMul(big.NewInt(123456789))
	Q := p.ScalarBaseMul(big.NewInt(987654321))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Pair(P, Q)
	}
}

func BenchmarkScalarMul(b *testing.B) {
	p := Fast254()
	k, _ := p.RandomScalar(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ScalarBaseMul(k)
	}
}

func BenchmarkHashToG1(b *testing.B) {
	p := Fast254()
	msg := []byte("flow-mod: s17 -> forward port 3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.HashToG1(msg)
	}
}

// Equal reports whether g and o are the same F_{p^2} element.
func (g *GT) Equal(o *GT) bool {
	return g.a == o.a && g.b == o.b
}

// Double returns 2·a through the Jacobian doubling formula, which the
// ladder and the Miller loop use unexported.
func (p *Params) Double(a *Point) *Point {
	if a.IsInfinity() {
		return Infinity()
	}
	j := p.fromAffine(a)
	p.jacDouble(&j, nil)
	return p.toAffine(&j)
}

// GTExp returns g^e reduced modulo the group order: the scalar action on
// the target group that bilinearity is stated in.
func (p *Params) GTExp(g *GT, e *big.Int) *GT {
	out := *g
	out.exp(new(big.Int).Mod(e, p.R))
	return &out
}

// GTMul returns the product of two target-group elements.
func (p *Params) GTMul(x, y *GT) *GT {
	out := *x
	out.mul(&y.a, &y.b)
	return &out
}

// GTBytes returns a canonical encoding of a target-group element: both
// coordinates, fixed-width and big-endian.
func (p *Params) GTBytes(g *GT) []byte {
	w := p.coordWidth()
	out := make([]byte, 2*w)
	p.fp.putBytes(out[:w], &g.a)
	p.fp.putBytes(out[w:], &g.b)
	return out
}
