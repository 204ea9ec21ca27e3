package pairing

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func TestPairPreparedMatchesPair(t *testing.T) {
	p := testParams()
	for i := 0; i < 8; i++ {
		ka, _ := p.RandomScalar(rand.Reader)
		kb, _ := p.RandomScalar(rand.Reader)
		a := p.ScalarBaseMul(ka)
		b := p.ScalarBaseMul(kb)
		want := p.Pair(a, b)
		got := p.PairPrepared(p.Prepare(a), b)
		if !got.Equal(want) {
			t.Fatalf("iteration %d: PairPrepared != Pair", i)
		}
	}
}

func TestPairPreparedHashedPoints(t *testing.T) {
	p := testParams()
	hm := p.HashToG1([]byte("prepared/hashed"))
	k, _ := p.RandomScalar(rand.Reader)
	sig := p.ScalarMul(hm, k)
	if !p.PairPrepared(p.Prepare(hm), sig).Equal(p.Pair(hm, sig)) {
		t.Fatal("prepared pairing disagrees on hashed point")
	}
	// Symmetry survives preparation: e(a, b) == e(b, a).
	if !p.PairPrepared(p.Prepare(sig), hm).Equal(p.Pair(hm, sig)) {
		t.Fatal("prepared pairing is not symmetric")
	}
}

func TestPairPreparedInfinity(t *testing.T) {
	p := testParams()
	k, _ := p.RandomScalar(rand.Reader)
	a := p.ScalarBaseMul(k)
	if !p.PairPrepared(p.Prepare(Infinity()), a).IsOne() {
		t.Fatal("e(∞, a) != 1")
	}
	if !p.PairPrepared(p.Prepare(a), Infinity()).IsOne() {
		t.Fatal("e(a, ∞) != 1")
	}
}

func TestPairProductMatchesPairs(t *testing.T) {
	p := testParams()
	for n := 1; n <= 4; n++ {
		terms := make([]ProductTerm, 0, n)
		want := p.gtOne()
		for i := 0; i < n; i++ {
			ka, _ := p.RandomScalar(rand.Reader)
			kb, _ := p.RandomScalar(rand.Reader)
			a := p.ScalarBaseMul(ka)
			b := p.ScalarBaseMul(kb)
			want = p.GTMul(want, p.Pair(a, b))
			if i%2 == 0 {
				terms = append(terms, ProductTerm{Prep: p.Prepare(a), B: b})
			} else {
				terms = append(terms, ProductTerm{A: a, B: b}) // live term
			}
		}
		got := p.PairProduct(terms...)
		if !got.Equal(want) {
			t.Fatalf("n=%d: PairProduct != ∏ Pair", n)
		}
	}
}

func TestPairProductVerificationEquation(t *testing.T) {
	// The BLS verification identity: for σ = x·H(m) and X = x·G,
	// e(G, σ)·e(X, −H(m)) == 1, and it breaks for any other signature.
	p := testParams()
	x, _ := p.RandomScalar(rand.Reader)
	X := p.ScalarBaseMul(x)
	hm := p.HashToG1([]byte("product/verify"))
	sigma := p.ScalarMul(hm, x)

	prepG := p.Prepare(p.G)
	prepX := p.Prepare(X)
	if !p.PairProduct(
		ProductTerm{Prep: prepG, B: sigma},
		ProductTerm{Prep: prepX, B: p.Neg(hm)},
	).IsOne() {
		t.Fatal("valid signature rejected by product check")
	}
	forged := p.Add(sigma, p.G)
	if p.PairProduct(
		ProductTerm{Prep: prepG, B: forged},
		ProductTerm{Prep: prepX, B: p.Neg(hm)},
	).IsOne() {
		t.Fatal("forged signature accepted by product check")
	}
}

func TestPairProductEmptyAndInfinity(t *testing.T) {
	p := testParams()
	if !p.PairProduct().IsOne() {
		t.Fatal("empty product != 1")
	}
	k, _ := p.RandomScalar(rand.Reader)
	a := p.ScalarBaseMul(k)
	if !p.PairProduct(ProductTerm{A: a, B: Infinity()}).IsOne() {
		t.Fatal("product with infinite evaluation point != 1")
	}
}

func TestStd512PreparedMatchesPair(t *testing.T) {
	if testing.Short() {
		t.Skip("512-bit pairing is slow")
	}
	p := Std512()
	k, _ := p.RandomScalar(rand.Reader)
	a := p.ScalarBaseMul(k)
	b := p.HashToG1([]byte("std512/prepared"))
	if !p.PairPrepared(p.Prepare(a), b).Equal(p.Pair(a, b)) {
		t.Fatal("std512: PairPrepared != Pair")
	}
}

func BenchmarkPrepareStd512(b *testing.B) {
	p := Std512()
	k, _ := p.RandomScalar(rand.Reader)
	a := p.ScalarBaseMul(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gtSink = p.PairPrepared(p.Prepare(a), p.G)
	}
}

func BenchmarkPairPreparedStd512(b *testing.B) {
	p := Std512()
	k, _ := p.RandomScalar(rand.Reader)
	a := p.ScalarBaseMul(k)
	prep := p.Prepare(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gtSink = p.PairPrepared(prep, p.G)
	}
}

func BenchmarkPairPreparedFast254(b *testing.B) {
	p := Fast254()
	k, _ := p.RandomScalar(rand.Reader)
	a := p.ScalarBaseMul(k)
	prep := p.Prepare(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gtSink = p.PairPrepared(prep, p.G)
	}
}

// BenchmarkPairProductStd512 measures the two-pairing verification shape:
// both first arguments prepared, one shared loop, one final exponentiation.
func BenchmarkPairProductStd512(b *testing.B) {
	p := Std512()
	x, _ := p.RandomScalar(rand.Reader)
	X := p.ScalarBaseMul(x)
	hm := p.HashToG1([]byte("bench/product"))
	sigma := p.ScalarMul(hm, x)
	prepG := p.Prepare(p.G)
	prepX := p.Prepare(X)
	negHm := p.Neg(hm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gtSink = p.PairProduct(
			ProductTerm{Prep: prepG, B: sigma},
			ProductTerm{Prep: prepX, B: negHm},
		)
	}
}

var gtSink *GT

func TestMultiScalarMulMatchesSum(t *testing.T) {
	p := testParams()
	for n := 0; n <= 5; n++ {
		points := make([]*Point, n)
		scalars := make([]*big.Int, n)
		want := Infinity()
		for i := 0; i < n; i++ {
			k, _ := p.RandomScalar(rand.Reader)
			kp, _ := p.RandomScalar(rand.Reader)
			points[i] = p.ScalarBaseMul(kp)
			scalars[i] = k
			want = p.Add(want, p.ScalarMul(points[i], k))
		}
		got := p.MultiScalarMul(points, scalars)
		if !got.Equal(want) {
			t.Fatalf("n=%d: MultiScalarMul != Σ ScalarMul", n)
		}
	}
}

func TestMultiScalarMulEdgeCases(t *testing.T) {
	p := testParams()
	k, _ := p.RandomScalar(rand.Reader)
	a := p.ScalarBaseMul(k)
	// Zero scalar and infinity point contribute nothing.
	got := p.MultiScalarMul(
		[]*Point{a, Infinity(), a},
		[]*big.Int{big.NewInt(0), big.NewInt(5), big.NewInt(3)},
	)
	if !got.Equal(p.ScalarMul(a, big.NewInt(3))) {
		t.Fatal("MultiScalarMul mishandles zero scalar or infinity point")
	}
}
