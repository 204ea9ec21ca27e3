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
	e := new(big.Int).Add(p, big.NewInt(1))
	return &Params{P: p, fp: newField(p), sqrtExp: e.Rsh(e, 2)}
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
// vacuous. inv and exp have one implementation, built on mul and sub.
func kernelMatchesLoop(f *field, op uint8, a, b *big.Int) (name string, ok bool) {
	var x, y, k, l fe
	f.fromBig(&x, a)
	f.fromBig(&y, b)
	switch op % 8 {
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
// and tower formulas use them. The second operand walks a table of random
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
