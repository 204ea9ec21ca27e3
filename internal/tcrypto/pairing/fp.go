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
// for the 254-bit field, n = 8 for the 512-bit one, read from the field
// at run time so one code path serves both. Every routine returns a fully
// reduced value in [0, p), so limb-wise equality is field equality.
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

func (x *fe) isZero() bool { return *x == fe{} }

// plainOne is the integer 1 as plain limbs. Multiplying by it leaves
// Montgomery form: (x·R)·1·R⁻¹ = x.
var plainOne = fe{1}

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
	if x.isZero() {
		*z = fe{}
		return
	}
	var b uint64
	for i, n := 0, f.limbs(); i < n; i++ {
		z[i], b = bits.Sub64(f.p[i], x[i], b)
	}
}

// mul sets z = x·y (Montgomery product x·y·R⁻¹). Each outer step adds
// x·y[i] + m·p to the running sum in a single pass over the limbs and
// drops the low limb, which m = t₀·(−p⁻¹) makes zero. z may alias x or y.
// Carries are folded with Add64(hi, 0, carry) so they stay in the flags.
func (f *field) mul(z, x, y *fe) {
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

// sqr sets z = x². A dedicated squaring (cross products computed once)
// measured no faster than mul in pure Go at either width, so there is
// none.
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
	for u != plainOne && v != plainOne {
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
	if u == plainOne {
		*z = r
	} else {
		*z = s
	}
}
