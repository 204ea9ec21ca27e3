package pairing

import (
	"math/big"
	"math/rand"
	"testing"
)

// Tests of fp.go's two implementations: the unrolled four-limb kernels and
// the looped code that serves every other width. The kernels answer to
// math/big like everything else, and at four limbs to the loops as well.

// p256Full is 2²⁵⁶ − 189, the largest 256-bit prime: four limbs with no
// spare bit in the top one, so sums and Montgomery accumulators carry out
// of the fourth limb. No pairing parameter set uses it; it is here because
// a kernel written for the 254-bit modulus alone would get it wrong.
var p256Full = func() *big.Int {
	p := new(big.Int).Lsh(big.NewInt(1), 256)
	return p.Sub(p, big.NewInt(189))
}()

// bareField wraps a field in just enough of a Params for fieldOp and
// edgeValues: no curve, no generator.
func bareField(p *big.Int) *Params {
	return &Params{P: p, fp: newField(p), sqrtExp: newWindow(sqrtExponent(p))}
}

// sqrtExponent is (p+1)/4, the exponent Params.sqrtExp recodes.
func sqrtExponent(p *big.Int) *big.Int {
	e := new(big.Int).Add(p, big.NewInt(1))
	return e.Rsh(e, 2)
}

// threeFields are the two pairing fields and the full-width four-limb one.
func threeFields() []*Params { return append(bothParams(), bareField(p256Full)) }

func sampleValues(p *Params, seed int64, random int) []*big.Int {
	rng := rand.New(rand.NewSource(seed))
	vals := edgeValues(p)
	for i := 0; i < random; i++ {
		vals = append(vals, new(big.Int).Rand(rng, p.P))
	}
	return vals
}

// TestFullWidthModulus says which way the choice in fp.go went for a
// four-limb modulus with a full top limb: it takes the kernels. That they
// are correct for it is TestFieldOpsMatchBig/p256 (against math/big and
// against the loops), TestFieldOpsAliased/p256 and FuzzFieldOps.
func TestFullWidthModulus(t *testing.T) {
	if n := newField(p256Full).n; n != 4 {
		t.Fatalf("2²⁵⁶ − 189 has %d limbs, want 4 (the kernels' width)", n)
	}
}

// TestFieldOpsAliased runs mul, add and sub with every way the three
// pointers can coincide. The kernels read their operands into registers
// before the first store and the loops write z behind their reads; each
// shape below breaks if either stops being true.
func TestFieldOpsAliased(t *testing.T) {
	type binop struct {
		name string
		limb func(f *field, z, x, y *fe)
		big  func(z, x, y *big.Int)
	}
	ops := []binop{
		{"mul", (*field).mul, func(z, x, y *big.Int) { z.Mul(x, y) }},
		{"add", (*field).add, func(z, x, y *big.Int) { z.Add(x, y) }},
		{"sub", (*field).sub, func(z, x, y *big.Int) { z.Sub(x, y) }},
		{"mulN", (*field).mulN, func(z, x, y *big.Int) { z.Mul(x, y) }},
		{"addN", (*field).addN, func(z, x, y *big.Int) { z.Add(x, y) }},
		{"subN", (*field).subN, func(z, x, y *big.Int) { z.Sub(x, y) }},
	}
	for _, p := range threeFields() {
		t.Run(paramsName(p), func(t *testing.T) {
			f := p.fp
			vals := sampleValues(p, 9, 12)
			check := func(op binop, shape string, got *fe, a, b *big.Int) {
				t.Helper()
				want := new(big.Int)
				op.big(want, a, b)
				if g := f.toBig(got); g.Cmp(want.Mod(want, p.P)) != 0 {
					t.Fatalf("%s %s (%x, %x) = %x, want %x", op.name, shape, a, b, g, want)
				}
			}
			for _, op := range ops {
				for _, a := range vals {
					for _, b := range vals {
						var x, y fe
						f.fromBig(&x, a)
						f.fromBig(&y, b)
						z, w := x, y
						op.limb(f, &z, &z, &w)
						check(op, "z==x", &z, a, b)
						z, w = x, y
						op.limb(f, &w, &z, &w)
						check(op, "z==y", &w, a, b)
						z, w = x, fe{}
						op.limb(f, &w, &z, &z)
						check(op, "x==y", &w, a, a)
						z = x
						op.limb(f, &z, &z, &z)
						check(op, "z==x==y", &z, a, a)
					}
				}
			}
		})
	}
}

// kernelMatchesLoop applies op (numbered as in fieldOp) through fp.go's
// dispatching entry points and through the looped code directly, and
// reports whether the limbs agree. On a four-limb field that is kernel
// against loop; at any other width both sides are the loop and it is
// vacuous. inv, legendre and exp have one implementation each.
func kernelMatchesLoop(f *field, op uint8, a, b *big.Int) (name string, ok bool) {
	var x, y, k, l fe
	f.fromBig(&x, a)
	f.fromBig(&y, b)
	switch op % fieldOps {
	case 0:
		name = "add"
		f.add(&k, &x, &y)
		f.addN(&l, &x, &y)
	case 1:
		name = "sub"
		f.sub(&k, &x, &y)
		f.subN(&l, &x, &y)
	case 2:
		name = "neg"
		f.neg(&k, &x)
		f.negN(&l, &x)
	case 3:
		name = "mul"
		f.mul(&k, &x, &y)
		f.mulN(&l, &x, &y)
	case 4:
		name = "sqr"
		f.sqr(&k, &x)
		f.mulN(&l, &x, &x)
	case 7:
		name = "dbl"
		f.dbl(&k, &x)
		f.addN(&l, &x, &x)
	default:
		return "", true
	}
	return name, k == l
}

// BenchmarkFieldOps times each base-field operation as a dependent chain
// (the next operation reads the last one's result), which is how the curve
// and tower formulas use them; legendre, whose result is a sign, reads the
// table instead. The second operand walks a table of random
// elements that fits the first-level cache: add and sub end in a decision
// the operands settle about evenly, and one fixed operand would let a
// branch predictor learn what real inputs never let it learn.
func BenchmarkFieldOps(b *testing.B) {
	for _, p := range bothParams() {
		f := p.fp
		rng := rand.New(rand.NewSource(11))
		var ys [64]fe
		for i := range ys {
			f.fromBig(&ys[i], new(big.Int).Rand(rng, p.P))
		}
		ops := []struct {
			name string
			step func(z, y *fe)
		}{
			{"mul", func(z, y *fe) { f.mul(z, z, y) }},
			{"sqr", func(z, _ *fe) { f.sqr(z, z) }},
			{"add", func(z, y *fe) { f.add(z, z, y) }},
			{"sub", func(z, y *fe) { f.sub(z, z, y) }},
			{"inv", func(z, _ *fe) { f.inv(z, z) }},
			{"legendre", func(z, y *fe) { z[0] += uint64(f.legendre(y)) }},
			{"sqrt-exp", func(z, _ *fe) { f.exp(z, z, &p.sqrtExp) }},
		}
		for _, op := range ops {
			b.Run(op.name+"/"+paramsName(p), func(b *testing.B) {
				z := ys[0]
				for i := 0; i < b.N; i++ {
					op.step(&z, &ys[i%len(ys)])
				}
				benchSink = z
			})
		}
	}
}

var benchSink fe

// TestBinaryGCDMatchesBig runs inv and legendre on values chosen to take
// the binary GCD through its rarer branches — operands whose top bits
// agree, so that the words cannot order them; powers of two, whose zero
// runs outlast a batch; values just below p — as well as random ones.
func TestBinaryGCDMatchesBig(t *testing.T) {
	for _, p := range threeFields() {
		t.Run(paramsName(p), func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			one := big.NewInt(1)
			vals := sampleValues(p, 13, 200)
			for k := 1; k < p.P.BitLen(); k += 7 {
				pow := new(big.Int).Lsh(one, uint(k))
				vals = append(vals, pow, new(big.Int).Sub(p.P, pow))
				// p − x with x sharing p's top bits, and x close to p/2^k.
				near := new(big.Int).Rsh(p.P, uint(k))
				vals = append(vals, near, near.Add(near, big.NewInt(int64(rng.Intn(1000)))))
				vals = append(vals, new(big.Int).Sub(p.P, new(big.Int).Rand(rng, pow)))
			}
			for _, a := range vals {
				a.Mod(a, p.P)
				for _, op := range []uint8{5, 8} { // inv, legendre
					if name, got, want := fieldOp(p, op, a, a); got.Cmp(want) != 0 {
						t.Fatalf("%s(%x) = %x, want %x", name, a, got, want)
					}
				}
			}
		})
	}
}

// TestWindowExpMatchesBig checks the sliding-window recoding and exp at
// every width on random exponents and on ones with long runs of ones and
// zeros, against big.Int.Exp; and that newWindow picks, for each field's
// square-root exponent, a width no costlier than the plain binary method.
func TestWindowExpMatchesBig(t *testing.T) {
	for _, p := range threeFields() {
		f := p.fp
		rng := rand.New(rand.NewSource(14))
		one := big.NewInt(1)
		exps := []*big.Int{one, big.NewInt(2), big.NewInt(0x3f), big.NewInt(0x40), big.NewInt(0x8001),
			sqrtExponent(p.P), new(big.Int).Sub(new(big.Int).Lsh(one, 200), one), new(big.Int).Lsh(one, 199)}
		for i := 0; i < 20; i++ {
			exps = append(exps, new(big.Int).Rand(rng, p.P).Add(exps[len(exps)-1], one))
		}
		a := new(big.Int).Rand(rng, p.P)
		var x, z fe
		f.fromBig(&x, a)
		for _, e := range exps {
			want := new(big.Int).Exp(a, e, p.P)
			for w := 1; w <= maxWindow; w++ {
				c := recode(e, w)
				f.exp(&z, &x, &c)
				if got := f.toBig(&z); got.Cmp(want) != 0 {
					t.Fatalf("%s: width %d: %x^%x = %x, want %x", paramsName(p), w, a, e, got, want)
				}
			}
		}
		muls := func(c window) int {
			n := 0
			for _, s := range c.steps {
				if s.odd != 0 {
					n++
				}
			}
			return n + 1<<(c.width-1) - 1
		}
		if c := newWindow(sqrtExponent(p.P)); muls(c) > muls(recode(sqrtExponent(p.P), 1)) {
			t.Fatalf("%s: width %d costs %d multiplies, the binary method %d", paramsName(p), c.width, muls(c), muls(recode(sqrtExponent(p.P), 1)))
		}
	}
}
