package pairing

import "math/bits"

// Inversion and the Legendre symbol in F_p share one binary GCD, in the
// optimized form of Pornin, "Optimized Binary GCD for Modular Inversion"
// (eprint 2020/972).
//
// The plain binary GCD keeps a and b with a odd or even and b odd: an even
// a is halved; an odd a first swaps with b when a < b, then becomes
// (a − b)/2. Started from (x, p) it ends at (0, gcd) after at most
// 2·len(p) steps. Each step reads only the low bits of a and b and the
// order of the two, so a batch of steps can run on one 64-bit word per
// operand: its top 64 − gcdLow bits, aligned to the wider operand's
// length, which decide the order, above its low gcdLow bits, which are
// exact. The batch collects its steps in a 2×2 matrix of small signed
// factors,
//
//	a′ = (f₀·a + g₀·b) / 2^j,   b′ = (f₁·a + g₁·b) / 2^j,
//
// and the full limbs take it once: two linear combinations and a shift,
// instead of j passes over every limb.
//
// Pornin lets a batch run on and repairs a sign that went wrong at the
// end. Here no step is ever taken that the exact algorithm would not
// take, which keeps a and b non-negative and makes the Jacobi symbol's
// rules apply at every step: an approximate order too close to call ends
// the batch, and only a batch's first step, where the limbs are at hand,
// settles it by comparing them. The bound behind "too close": the words
// stand for a and b scaled down by 2^(s − gcdLow), s the position of the
// top part, with an error below 2^s each; every row of the factor matrix
// has |f| + |g| ≤ 2^j, so after j steps each error is still below 2^s,
// and a word difference of at least 2^(gcdLow+1) orders the true values.
// Once both operands fit one word nothing is approximate.
//
// Like the rest of the package this is variable-time.

const (
	// gcdLow is the count of exact low bits in a batch's words.
	gcdLow = 32
	// gcdSteps is a batch's length. After j steps the words' low
	// gcdLow − j bits are still exact, and the Jacobi symbol reads b mod 8
	// at every step, so three must remain at the last.
	gcdSteps = gcdLow - 2
)

// unpack splits a packed factor row f + 2^32·g, |f|, |g| < 2^31.
func unpack(w uint64) (f, g int64) {
	f = int64(int32(w))
	return f, int64(w-uint64(f)) >> 32
}

// inv sets z = x⁻¹; the inverse of 0 is 0. The cofactor v of b starts at
// R² instead of 1, so from the Montgomery form x·R the result is
// R²/(x·R) = x⁻¹·R, itself in Montgomery form.
func (f *field) inv(z, x *fe) { f.binaryGCD(z, x) }

// legendre returns the Legendre symbol of x: 0 for 0, 1 for a non-zero
// square and −1 for a non-square. The Montgomery factor R = 2^(64n) is an
// even power of two, a square, so x·R has the symbol of x.
func (f *field) legendre(x *fe) int {
	if x.isZero() {
		return 0
	}
	if f.binaryGCD(nil, x) != 0 {
		return -1
	}
	return 1
}

// binaryGCD runs the binary GCD of the plain integer x against p and
// returns the parity of the sign flips of the Jacobi symbol (x/p) along
// the way: 1 when the symbol is −1. It keeps
//
//	a·R² ≡ u·x,   b·R² ≡ v·x   (mod p)
//
// when z is non-nil and sets z = v at the end, where b = gcd(x, p) = 1.
func (f *field) binaryGCD(z, x *fe) (flip uint64) {
	a, b := *x, f.p
	var u, v fe
	if z != nil {
		u = f.r2
	}
	// u and v take the batches' matrices two at a time, multiplied
	// together: a product's rows keep |f| + |g| ≤ 2^J, J ≤ 2·gcdSteps.
	F0, G0, F1, G1, J := int64(1), int64(0), int64(0), int64(1), 0
	for !a.isZero() {
		xa, xb, m := f.gcdWords(&a, &b)
		near := uint64(1) << (gcdLow + 1)
		if m == 1 {
			near = 0 // the words are a and b
		}
		var pf0, pf1, fl uint64
		var j int
		if d := xa - xb; xa&1 == 1 && (d < near || -d < near) {
			// The words cannot order a and b, so the limbs take this
			// batch's one step: a′ = (a − b)/2 and b′ = b, or the same
			// after a swap when a < b.
			pf0, pf1, j = 1<<64-1<<32+1, 2<<32, 1 // (1, −1), (0, 2)
			a0, b0 := a[0], b[0]
			if f.less(&a, &b) {
				pf0, pf1 = 1<<32-1, 2 // (−1, 1), (2, 0)
				fl = (a0 & b0) >> 1
				b0 = a0
			}
			flip ^= fl ^ b0>>1 ^ b0>>2
		} else {
			pf0, pf1, fl, j = gcdBatch(xa, xb, near)
			flip ^= fl
		}
		f0, g0 := unpack(pf0)
		f1, g1 := unpack(pf1)
		na, nb := a, b
		f.gcdLin(&a, &na, &nb, f0, g0, j, m)
		f.gcdLin(&b, &na, &nb, f1, g1, j, m)
		if z == nil {
			continue
		}
		F0, G0, F1, G1 = f0*F0+g0*F1, f0*G0+g0*G1, f1*F0+g1*F1, f1*G0+g1*G1
		if J += j; J > gcdSteps || a.isZero() {
			nu, nv := u, v
			f.gcdLinMod(&u, &nu, &nv, F0, G0, J)
			f.gcdLinMod(&v, &nu, &nv, F1, G1, J)
			F0, G0, F1, G1, J = 1, 0, 0, 1, 0
		}
	}
	if z != nil {
		*z = v
	}
	return flip & 1
}

// gcdBatch runs up to gcdSteps steps on the words xa and xb of a and b,
// and stops early where an odd a meets a b that the words cannot order,
// |xa − xb| < near. It returns the factor rows packed, f + 2^32·g in one
// word each: every step is linear in them, and |f|, |g| ≤ 2^gcdSteps <
// 2^31 lets unpack tell the halves apart. A round is an odd a's
// subtraction, if a is odd, and then every halving up to a's next set bit
// (at least one, since a − b is even). It runs without branches on the
// operands: masks choose whether a subtracts b and whether it swaps with b
// first.
func gcdBatch(xa, xb, near uint64) (pf0, pf1, flip uint64, j int) {
	pf0, pf1 = 1, 1<<32
	for j < gcdSteps {
		odd := -(xa & 1)
		d, lt := bits.Sub64(xa, xb, 0)
		ad := (d ^ -lt) + lt // |xa − xb|
		if _, close := bits.Sub64(ad, near, 0); odd&-close != 0 {
			break
		}
		swap := odd & -lt
		// Reciprocity: (a/b) = −(b/a) when both are ≡ 3 (mod 4).
		flip ^= (swap & xa & xb) >> 1
		xb ^= (xa ^ xb) & swap
		xa = ad&odd | xa&^odd
		t := (pf0 ^ pf1) & swap
		pf0 ^= t
		pf1 ^= t
		pf0 -= pf1 & odd
		k := uint(min(bits.TrailingZeros64(xa), gcdSteps-j)) & 63
		xa >>= k
		pf1 <<= k
		j += int(k)
		// (2/b) = −1 exactly when b ≡ 3 or 5 (mod 8).
		flip ^= uint64(k) & (xb>>1 ^ xb>>2)
	}
	return pf0, pf1, flip, j
}

// gcdWords returns a batch's words for a and b and m, the count of limbs
// that a and b occupy. At m = 1 the words are a and b. Otherwise each
// word is the operand's low gcdLow bits under its bits from
// s = len − (64 − gcdLow) up, len the bit length of the wider operand;
// s > gcdLow, so the two parts do not overlap.
func (f *field) gcdWords(a, b *fe) (xa, xb uint64, m int) {
	i := f.limbs() - 1
	for i > 0 && a[i]|b[i] == 0 {
		i--
	}
	if i == 0 {
		return a[0], b[0], 1
	}
	lz := uint(bits.LeadingZeros64(a[i] | b[i]))
	const low = 1<<gcdLow - 1
	xa = (a[i]<<lz|a[i-1]>>(64-lz))&^low | a[0]&low
	xb = (b[i]<<lz|b[i-1]>>(64-lz))&^low | b[0]&low
	return xa, xb, i + 1
}

// lin sets t = x·fx + y·fy for x, y below 2^(64m), in m+1 limbs of two's
// complement. A negative factor f is taken as the unsigned word f + 2^64,
// and the surplus x·2^64 is subtracted one limb up.
func (f *field) lin(t *wide, x, y *fe, fx, fy int64, m int) {
	if m < 1 || m > maxLimbs {
		panic("pairing: bad limb count")
	}
	ux, uy := uint64(fx), uint64(fy)
	mx, my := uint64(fx>>63), uint64(fy>>63)
	var cx, cy, c, bx, by, px, py uint64
	for i := 0; i < m; i++ {
		hx, lx := bits.Mul64(x[i], ux)
		hy, ly := bits.Mul64(y[i], uy)
		var k uint64
		lx, k = bits.Add64(lx, cx, 0)
		cx = hx + k
		ly, k = bits.Add64(ly, cy, 0)
		cy = hy + k
		s, c1 := bits.Add64(lx, ly, c)
		s, bx = bits.Sub64(s, px&mx, bx)
		s, by = bits.Sub64(s, py&my, by)
		t[i], c = s, c1
		px, py = x[i], y[i]
	}
	t[m] = cx + cy + c - px&mx - bx - py&my - by
}

// gcdLin sets the low m limbs of z to (x·fx + y·fy) / 2^j, a quotient the
// batch made exact, non-negative and no wider than x and y, which occupy
// m limbs; 1 ≤ j ≤ gcdSteps.
func (f *field) gcdLin(z, x, y *fe, fx, fy int64, j, m int) {
	var t wide
	f.lin(&t, x, y, fx, fy, m)
	for i := 0; i < m; i++ {
		z[i] = t[i]>>j | t[i+1]<<(64-j)
	}
}

// gcdLinMod sets z = (x·fx + y·fy) / 2^j mod p for x, y in [0, p) and
// |fx| + |fy| ≤ 2^j ≤ 2^(2·gcdSteps). It adds the multiple q·p, q < 2^j,
// that clears the low j bits (a Montgomery reduction by 2^j), shifts, and
// brings the quotient, which lies in (−p, 2p), into [0, p).
func (f *field) gcdLinMod(z, x, y *fe, fx, fy int64, j int) {
	var t wide
	n := f.limbs()
	f.lin(&t, x, y, fx, fy, n)
	q := t[0] * f.pInv & (1<<j - 1)
	var pc, ac uint64
	for i := 0; i < n; i++ {
		hi, lo := bits.Mul64(q, f.p[i])
		lo, k := bits.Add64(lo, pc, 0)
		pc = hi + k
		t[i], ac = bits.Add64(t[i], lo, ac)
	}
	t[n] += pc + ac
	for i := 0; i < n; i++ {
		z[i] = t[i]>>j | t[i+1]<<(64-j)
	}
	var c uint64
	switch top := int64(t[n]) >> j; {
	case top < 0:
		for i := 0; i < n; i++ {
			z[i], c = bits.Add64(z[i], f.p[i], c)
		}
	case top > 0 || !f.less(z, &f.p):
		for i := 0; i < n; i++ {
			z[i], c = bits.Sub64(z[i], f.p[i], c)
		}
	}
}
