// Package pairing implements a symmetric (Type-A) bilinear pairing over a
// supersingular elliptic curve, equivalent to the construction used by the
// Pairing-Based Cryptography (PBC) library's default "Type A" parameters
// that the Cicero paper relies on for BLS threshold signatures.
//
// The curve is E: y^2 = x^3 + x over F_p with p ≡ 3 (mod 4), which is
// supersingular with #E(F_p) = p + 1 and embedding degree 2. G1 is the
// order-r subgroup of E(F_p) for a prime r | p+1, and the target group GT
// lives in F_{p^2}. The pairing is the reduced Tate pairing composed with
// the distortion map φ(x, y) = (−x, i·y), which makes it symmetric:
// e: G1 × G1 → GT.
//
// The base field F_p and F_{p^2} run on fixed-width Montgomery limbs (fp.go,
// fp2.go), pure Go on math/bits: 4×64 bits for Fast254, where multiply, add,
// subtract and negate are unrolled four-limb kernels, and 8×64 for Std512,
// where they are loops over the limb count. fp.go picks by the modulus'
// limb count; nothing above it knows which one runs.
// Points, Jacobian and x-only points, prepared Miller lines and GT elements
// hold limbs; math/big appears only at the boundary — scalars, the parameter
// integers, hash-to-field's wide reduction and byte encodings. Every
// scalar multiplication, Prepare and pairing (product) pays at most one
// field inversion. Output bytes are those of the math/big implementation
// this replaced (testdata/vectors.golden). The arithmetic is variable-time;
// the package is intended for protocol simulation and reproduction, matching
// the message sizes, flows, and verification semantics of BLS threshold
// signatures.
package pairing

import (
	"fmt"
	"math/big"
	"sync"
)

// Params describes a Type-A pairing group: a 512-bit (or smaller) base
// field prime p = h·r − 1 with p ≡ 3 (mod 4) and a prime subgroup order r.
type Params struct {
	// P is the base field prime, p ≡ 3 (mod 4).
	P *big.Int
	// R is the prime order of the pairing groups G1 and GT.
	R *big.Int
	// H is the cofactor, with p + 1 = h·r.
	H *big.Int
	// G is the canonical generator of G1, derived by hashing a fixed
	// domain-separation tag to the curve.
	G *Point

	// fp is the base field on Montgomery limbs.
	fp *field
	// sqrtExp caches (p+1)/4 for square roots in F_p.
	sqrtExp *big.Int
}

// mustInt parses a base-10 integer literal, panicking on malformed input.
// It is only invoked on compile-time constants below.
func mustInt(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic(fmt.Sprintf("pairing: bad integer literal %q", s))
	}
	return v
}

// newParams validates the (p, r, h) triple and derives the generator.
func newParams(p, r, h *big.Int) *Params {
	params := &Params{P: p, R: r, H: h}
	// p ≡ 3 (mod 4) so square roots are x^((p+1)/4).
	if new(big.Int).Mod(p, big.NewInt(4)).Int64() != 3 {
		panic("pairing: p must be ≡ 3 (mod 4)")
	}
	// p + 1 = h·r.
	check := new(big.Int).Mul(h, r)
	check.Sub(check, big.NewInt(1))
	if check.Cmp(p) != 0 {
		panic("pairing: p+1 != h*r")
	}
	// gcd(h, r) = 1 splits E(F_p) into G1 and the cofactor part, and h is
	// invertible modulo r: bls verifies against (h⁻¹ mod r)·G.
	if new(big.Int).GCD(nil, nil, h, r).Cmp(big.NewInt(1)) != 0 {
		panic("pairing: gcd(h, r) != 1")
	}
	params.sqrtExp = new(big.Int).Add(p, big.NewInt(1))
	params.sqrtExp.Rsh(params.sqrtExp, 2)
	params.fp = newField(p)
	params.G = params.HashToG1([]byte("cicero/pairing/type-a/generator/v1"))
	return params
}

// Std512 returns the default 512-bit-field parameter set (≈ PBC Type-A
// defaults: 160-bit group order, 512-bit field). The returned value is
// shared and must be treated as read-only.
var Std512 = sync.OnceValue(func() *Params {
	return newParams(
		mustInt("11344987417620570215211206517385987195581706364720666467356491075591632781812873574295364175073485513830782100353380300285923225305048550682171445884404127"),
		mustInt("1236646420726429853416795733647470359079195292693"),
		mustInt("9173994463960286046443283581208347763186259956673124494950355357547691504353939232280074212440502746219296"),
	)
})

// Fast254 returns a reduced-size parameter set (254-bit field, 80-bit group
// order) used to keep large-scale simulations fast. It provides the same
// algebraic structure with toy security. The returned value is shared and
// must be treated as read-only.
var Fast254 = sync.OnceValue(func() *Params {
	return newParams(
		mustInt("26032073662923519186769407859612151225879900140760191024567837059931701108467"),
		mustInt("1087150122137225958799007"),
		mustInt("23945242826029513411849172299223580994042798784118924"),
	)
})
