package pairing

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// Base-field arithmetic on fixed-width limbs in Montgomery form.
//
// An element x of F_p is held as x·R mod p with R = 2^(64n), in n
// little-endian 64-bit limbs of a fixed [maxLimbs]uint64 backing: n = 4
// for the 254-bit field, n = 8 for the 512-bit one. Limbs above n stay
// zero. Every routine returns a fully reduced value in [0, p), so limb-wise
// equality is field equality.
//
// mul, add, sub and neg each have two implementations, chosen by the
// modulus' limb count and by nothing else. At n = 4 they are straight-line
// kernels: operands in locals, carries chained through math/bits, the final
// conditional subtraction folded in, no temporary in memory. They hold for
// every odd four-limb modulus, a full top limb included. At any other n
// they are the loops mulN, addN, subN and negN over a limb count read at
// run time; the 512-bit field runs on those, and the tests run them at
// four limbs as the second implementation the kernels must equal. The
// choice is one compare at the head of each kernel rather than a wrapper
// around two calls: Go does not inline a function that makes two calls, so
// a wrapper would put a second call on every field operation.
//
// Nothing here is constant-time: like the math/big arithmetic it
// replaces, running time depends on operand values.

// maxLimbs is the widest supported field, 512 bits.
const maxLimbs = 8

// fe is a base-field element. The zero value is 0 (in either form).
type fe [maxLimbs]uint64

// field is F_p for one modulus.
type field struct {
	n    int    // active limbs
	p    fe     // the modulus
	pInv uint64 // −p⁻¹ mod 2^64
	one  fe     // R mod p: the Montgomery form of 1
	r2   fe     // R² mod p: multiplying by it enters Montgomery form
}

// newField precomputes the Montgomery constants for an odd modulus.
func newField(p *big.Int) *field {
	n := (p.BitLen() + 63) / 64
	if n > maxLimbs {
		panic("pairing: field wider than 512 bits")
	}
	f := &field{n: n}
	f.setLimbs(&f.p, p)
	// Newton iteration doubles the correct low bits of p⁻¹ mod 2^64; an
	// odd p is its own inverse mod 8.
	inv := f.p[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - f.p[0]*inv
	}
	f.pInv = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*n))
	f.setLimbs(&f.one, new(big.Int).Mod(r, p))
	f.setLimbs(&f.r2, r.Mul(r, r).Mod(r, p))
	return f
}

// setLimbs writes a non-negative integer below 2^(64n) into z as plain
// limbs. It goes through the byte encoding, not big.Int.Bits, so it is
// independent of the platform's big.Word size.
func (f *field) setLimbs(z *fe, x *big.Int) {
	var buf [8 * maxLimbs]byte
	f.limbsFromBytes(z, x.FillBytes(buf[:8*f.n]))
}

// limbsFromBytes reads a big-endian integer of at most 8n bytes into z as
// plain limbs.
func (f *field) limbsFromBytes(z *fe, b []byte) {
	var buf [8 * maxLimbs]byte
	copy(buf[len(buf)-len(b):], b)
	for i := range z {
		z[i] = binary.BigEndian.Uint64(buf[len(buf)-8*(i+1):])
	}
}

// fromBig sets z to the Montgomery form of x, which must lie in [0, p).
func (f *field) fromBig(z *fe, x *big.Int) {
	f.setLimbs(z, x)
	f.mul(z, z, &f.r2)
}

// toBig returns the integer in [0, p) that x represents.
func (f *field) toBig(x *fe) *big.Int {
	var buf [8 * maxLimbs]byte
	f.putBytes(buf[:], x)
	return new(big.Int).SetBytes(buf[:])
}

// fromBytes sets z to the element encoded big-endian in b (at most 8n
// bytes) and reports whether the encoding is canonical, i.e. below p.
func (f *field) fromBytes(z *fe, b []byte) bool {
	f.limbsFromBytes(z, b)
	if !f.less(z, &f.p) {
		return false
	}
	f.mul(z, z, &f.r2)
	return true
}

// putBytes writes x as a fixed-width big-endian integer filling b, which
// must be wide enough for p and at most 8·maxLimbs bytes.
func (f *field) putBytes(b []byte, x *fe) {
	var plain fe
	f.mul(&plain, x, &plainOne)
	var buf [8 * maxLimbs]byte
	for i, limb := range plain {
		binary.BigEndian.PutUint64(buf[len(buf)-8*(i+1):], limb)
	}
	copy(b, buf[len(buf)-len(b):])
}

// limbs returns the active limb count, bounded so the compiler can drop
// the bounds checks in the limb loops.
func (f *field) limbs() int {
	if f.n < 1 || f.n > maxLimbs {
		panic("pairing: bad limb count")
	}
	return f.n
}

// less reports x < y on plain limbs.
func (f *field) less(x, y *fe) bool {
	var b uint64
	for i, n := 0, f.limbs(); i < n; i++ {
		_, b = bits.Sub64(x[i], y[i], b)
	}
	return b != 0
}

// isZero ORs the limbs; the ones above n are zero at either width.
func (x *fe) isZero() bool {
	return x[0]|x[1]|x[2]|x[3]|x[4]|x[5]|x[6]|x[7] == 0
}

// plainOne is the integer 1 as plain limbs. Multiplying by it leaves
// Montgomery form: (x·R)·1·R⁻¹ = x.
var plainOne = fe{1}

// isPlainOne reports x == plainOne.
func (x *fe) isPlainOne() bool {
	return x[0]^1|x[1]|x[2]|x[3]|x[4]|x[5]|x[6]|x[7] == 0
}

// wide is an n-limb sum with its overflow in limb n.
type wide [maxLimbs + 1]uint64

// reduce sets z = t − p when t is at least p, and z = t otherwise; t < 2p
// always holds at the call sites.
func (f *field) reduce(z *fe, t *wide) {
	var d fe
	var b uint64
	n := f.limbs()
	for i := 0; i < n; i++ {
		d[i], b = bits.Sub64(t[i], f.p[i], b)
	}
	if t[n] != 0 || b == 0 {
		copy(t[:n], d[:n])
	}
	copy(z[:n], t[:n])
}

// add sets z = x + y.
func (f *field) add(z, x, y *fe) {
	if f.n != 4 {
		f.addN(z, x, y)
		return
	}
	s0, c := bits.Add64(x[0], y[0], 0)
	s1, c := bits.Add64(x[1], y[1], c)
	s2, c := bits.Add64(x[2], y[2], c)
	s3, c := bits.Add64(x[3], y[3], c)
	// The sum is below 2p: take s − p unless that borrows past the carry.
	d0, b := bits.Sub64(s0, f.p[0], 0)
	d1, b := bits.Sub64(s1, f.p[1], b)
	d2, b := bits.Sub64(s2, f.p[2], b)
	d3, b := bits.Sub64(s3, f.p[3], b)
	_, b = bits.Sub64(c, 0, b)
	// Operands decide the outcome about evenly, so select by mask rather
	// than by a branch the predictor cannot learn.
	keep := -b
	z[0] = d0 ^ (d0^s0)&keep
	z[1] = d1 ^ (d1^s1)&keep
	z[2] = d2 ^ (d2^s2)&keep
	z[3] = d3 ^ (d3^s3)&keep
}

// addN is add for any limb count.
func (f *field) addN(z, x, y *fe) {
	var t wide
	var c uint64
	n := f.limbs()
	for i := 0; i < n; i++ {
		t[i], c = bits.Add64(x[i], y[i], c)
	}
	t[n] = c
	f.reduce(z, &t)
}

// dbl sets z = 2x.
func (f *field) dbl(z, x *fe) { f.add(z, x, x) }

// sub sets z = x − y.
func (f *field) sub(z, x, y *fe) {
	if f.n != 4 {
		f.subN(z, x, y)
		return
	}
	d0, b := bits.Sub64(x[0], y[0], 0)
	d1, b := bits.Sub64(x[1], y[1], b)
	d2, b := bits.Sub64(x[2], y[2], b)
	d3, b := bits.Sub64(x[3], y[3], b)
	// Add p back under a mask when the difference went negative; as in
	// add, a branch here would be a coin toss.
	neg := -b
	d0, c := bits.Add64(d0, f.p[0]&neg, 0)
	d1, c = bits.Add64(d1, f.p[1]&neg, c)
	d2, c = bits.Add64(d2, f.p[2]&neg, c)
	d3, _ = bits.Add64(d3, f.p[3]&neg, c)
	z[0], z[1], z[2], z[3] = d0, d1, d2, d3
}

// subN is sub for any limb count.
func (f *field) subN(z, x, y *fe) {
	var b, c uint64
	n := f.limbs()
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	if b != 0 {
		for i := 0; i < n; i++ {
			z[i], c = bits.Add64(z[i], f.p[i], c)
		}
	}
}

// neg sets z = −x.
func (f *field) neg(z, x *fe) {
	if f.n != 4 {
		f.negN(z, x)
		return
	}
	if x.isZero() {
		*z = fe{}
		return
	}
	d0, b := bits.Sub64(f.p[0], x[0], 0)
	d1, b := bits.Sub64(f.p[1], x[1], b)
	d2, b := bits.Sub64(f.p[2], x[2], b)
	d3, _ := bits.Sub64(f.p[3], x[3], b)
	z[0], z[1], z[2], z[3] = d0, d1, d2, d3
}

// negN is neg for any limb count.
func (f *field) negN(z, x *fe) {
	if x.isZero() {
		*z = fe{}
		return
	}
	var b uint64
	for i, n := 0, f.limbs(); i < n; i++ {
		z[i], b = bits.Sub64(f.p[i], x[i], b)
	}
}

// mul sets z = x·y (Montgomery product x·y·R⁻¹); z may alias x or y.
//
// The kernel is operand scanning, one round per limb of y: add x·yᵢ to the
// running sum t, then add m·p with m = t₀·(−p⁻¹) so that the low limb
// cancels, and drop it. Each round multiplies first and then adds the four
// low halves in one carry chain and the four high halves in another, one
// limb up, because a multiply between two adds would clobber the carry
// flag. t stays below 2p, so between rounds it is four limbs and a bit
// (t4); inside a round it can reach one bit further (t5). A modulus with a
// spare top bit never sets either, but nothing here relies on that.
func (f *field) mul(z, x, y *fe) {
	if f.n != 4 {
		f.mulN(z, x, y)
		return
	}
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	p0, p1, p2, p3 := f.p[0], f.p[1], f.p[2], f.p[3]
	pInv := f.pInv
	var c, t5 uint64

	// Round 0 starts from t = 0.
	yi := y[0]
	h0, t0 := bits.Mul64(x0, yi)
	h1, t1 := bits.Mul64(x1, yi)
	h2, t2 := bits.Mul64(x2, yi)
	h3, t3 := bits.Mul64(x3, yi)
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4 := h3 + c
	m := t0 * pInv
	h0, l0 := bits.Mul64(m, p0)
	h1, l1 := bits.Mul64(m, p1)
	h2, l2 := bits.Mul64(m, p2)
	h3, l3 := bits.Mul64(m, p3)
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3, t4 = bits.Add64(t4, 0, c)
	t0, c = bits.Add64(t0, h0, 0)
	t1, c = bits.Add64(t1, h1, c)
	t2, c = bits.Add64(t2, h2, c)
	t3, c = bits.Add64(t3, h3, c)
	t4 += c

	// Round 1.
	yi = y[1]
	h0, l0 = bits.Mul64(x0, yi)
	h1, l1 = bits.Mul64(x1, yi)
	h2, l2 = bits.Mul64(x2, yi)
	h3, l3 = bits.Mul64(x3, yi)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, t5 = bits.Add64(t4, h3, c)
	m = t0 * pInv
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3, c = bits.Add64(t4, 0, c)
	t4 = t5 + c
	t0, c = bits.Add64(t0, h0, 0)
	t1, c = bits.Add64(t1, h1, c)
	t2, c = bits.Add64(t2, h2, c)
	t3, c = bits.Add64(t3, h3, c)
	t4 += c

	// Round 2.
	yi = y[2]
	h0, l0 = bits.Mul64(x0, yi)
	h1, l1 = bits.Mul64(x1, yi)
	h2, l2 = bits.Mul64(x2, yi)
	h3, l3 = bits.Mul64(x3, yi)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, t5 = bits.Add64(t4, h3, c)
	m = t0 * pInv
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3, c = bits.Add64(t4, 0, c)
	t4 = t5 + c
	t0, c = bits.Add64(t0, h0, 0)
	t1, c = bits.Add64(t1, h1, c)
	t2, c = bits.Add64(t2, h2, c)
	t3, c = bits.Add64(t3, h3, c)
	t4 += c

	// Round 3.
	yi = y[3]
	h0, l0 = bits.Mul64(x0, yi)
	h1, l1 = bits.Mul64(x1, yi)
	h2, l2 = bits.Mul64(x2, yi)
	h3, l3 = bits.Mul64(x3, yi)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, t5 = bits.Add64(t4, h3, c)
	m = t0 * pInv
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3, c = bits.Add64(t4, 0, c)
	t4 = t5 + c
	t0, c = bits.Add64(t0, h0, 0)
	t1, c = bits.Add64(t1, h1, c)
	t2, c = bits.Add64(t2, h2, c)
	t3, c = bits.Add64(t3, h3, c)
	t4 += c

	// t < 2p: subtract p once unless that borrows past t4.
	d0, b := bits.Sub64(t0, p0, 0)
	d1, b := bits.Sub64(t1, p1, b)
	d2, b := bits.Sub64(t2, p2, b)
	d3, b := bits.Sub64(t3, p3, b)
	if _, b = bits.Sub64(t4, 0, b); b == 0 {
		t0, t1, t2, t3 = d0, d1, d2, d3
	}
	z[0], z[1], z[2], z[3] = t0, t1, t2, t3
}

// mulN is mul for any limb count. Each outer step adds x·y[i] + m·p to
// the running sum in a single pass over the limbs and drops the low limb,
// which m = t₀·(−p⁻¹) makes zero. Carries are folded with
// Add64(hi, 0, carry) so they stay in the flags.
func (f *field) mulN(z, x, y *fe) {
	var t wide
	n := f.limbs()
	for i := 0; i < n; i++ {
		yi := y[i]
		var cc uint64
		// c1 carries the x·y[i] column sums, c2 the m·p ones.
		c1, lo := bits.Mul64(x[0], yi)
		lo, cc = bits.Add64(lo, t[0], 0)
		c1, _ = bits.Add64(c1, 0, cc)
		m := lo * f.pInv
		c2, l2 := bits.Mul64(m, f.p[0])
		_, cc = bits.Add64(l2, lo, 0)
		c2, _ = bits.Add64(c2, 0, cc)
		for j := 1; j < n; j++ {
			hi, lo := bits.Mul64(x[j], yi)
			lo, cc = bits.Add64(lo, t[j], 0)
			hi, _ = bits.Add64(hi, 0, cc)
			lo, cc = bits.Add64(lo, c1, 0)
			c1, _ = bits.Add64(hi, 0, cc)
			hi, l2 := bits.Mul64(m, f.p[j])
			lo, cc = bits.Add64(lo, l2, 0)
			hi, _ = bits.Add64(hi, 0, cc)
			lo, cc = bits.Add64(lo, c2, 0)
			c2, _ = bits.Add64(hi, 0, cc)
			t[j-1] = lo
		}
		s, cc := bits.Add64(t[n], c1, 0)
		s, c3 := bits.Add64(s, c2, 0)
		t[n-1] = s
		t[n] = cc + c3
	}
	f.reduce(z, &t)
}

// sqr sets z = x². There is no dedicated squaring: with the cross
// products computed once and a separate reduction it measured 1 to 3 %
// faster than mul(x, x) at four limbs (BenchmarkFieldOps' chain, 25.8
// against 26.2 ns) and no faster in the loops, short of the 10 % that would
// pay for a second multiply kernel.
func (f *field) sqr(z, x *fe) { f.mul(z, x, x) }

// exp sets z = x^e for a non-negative exponent, by square-and-multiply.
func (f *field) exp(z, x *fe, e *big.Int) {
	base := *x
	*z = f.one
	for i := e.BitLen() - 1; i >= 0; i-- {
		f.sqr(z, z)
		if e.Bit(i) == 1 {
			f.mul(z, z, &base)
		}
	}
}

// shr1 halves the plain integer x, shifting carry in at the top.
func (f *field) shr1(x *fe, carry uint64) {
	n := f.limbs()
	for i := 0; i < n-1; i++ {
		x[i] = x[i]>>1 | x[i+1]<<63
	}
	x[n-1] = x[n-1]>>1 | carry<<63
}

// halve sets x = x/2 mod p on a plain residue: x is shifted when even,
// and x + p (which is even) is shifted otherwise.
func (f *field) halve(x *fe) {
	var c uint64
	if x[0]&1 == 1 {
		for i, n := 0, f.limbs(); i < n; i++ {
			x[i], c = bits.Add64(x[i], f.p[i], c)
		}
	}
	f.shr1(x, c)
}

// inv sets z = x⁻¹ for x ≠ 0 with the binary extended Euclidean
// algorithm. It keeps r·x ≡ u·R² and s·x ≡ v·R² (mod p) on plain
// integers, so starting from the Montgomery form x·R the survivor at
// u = 1 (or v = 1) is R²/(x·R) = x⁻¹·R, already in Montgomery form.
// The inverse of 0 is 0.
func (f *field) inv(z, x *fe) {
	if x.isZero() {
		*z = fe{}
		return
	}
	u, v := *x, f.p
	r, s := f.r2, fe{}
	for !u.isPlainOne() && !v.isPlainOne() {
		for u[0]&1 == 0 {
			f.shr1(&u, 0)
			f.halve(&r)
		}
		for v[0]&1 == 0 {
			f.shr1(&v, 0)
			f.halve(&s)
		}
		if f.less(&u, &v) {
			f.sub(&v, &v, &u) // no borrow: plain v − u
			f.sub(&s, &s, &r)
		} else {
			f.sub(&u, &u, &v)
			f.sub(&r, &r, &s)
		}
	}
	if u.isPlainOne() {
		*z = r
	} else {
		*z = s
	}
}
