// Package shamir implements Shamir secret sharing over an arbitrary prime
// field, as introduced in "How to Share a Secret" (Shamir, 1979). It is the
// algebraic foundation for the threshold signatures and distributed key
// generation used by Cicero's control plane: a degree t−1 polynomial f with
// f(0) = secret is evaluated at participant indices, and any t shares
// reconstruct the secret via Lagrange interpolation while t−1 shares reveal
// nothing.
package shamir

import (
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Polynomial is a polynomial over a prime field with coefficients in
// ascending degree order: Coeffs[0] is the constant term (the secret).
type Polynomial struct {
	Modulus *big.Int
	Coeffs  []*big.Int
}

// Errors returned by the package.
var (
	// ErrThreshold reports an invalid (t, n) combination.
	ErrThreshold = errors.New("shamir: threshold must satisfy 1 <= t <= n")
	// ErrTooFewShares reports fewer shares than the threshold requires.
	ErrTooFewShares = errors.New("shamir: not enough shares to reconstruct")
	// ErrDuplicateIndex reports two shares claiming the same index.
	ErrDuplicateIndex = errors.New("shamir: duplicate share index")
)

// NewPolynomial samples a uniformly random degree t−1 polynomial with the
// given constant term over the field of the given modulus.
func NewPolynomial(rand io.Reader, modulus, constant *big.Int, t int) (*Polynomial, error) {
	if t < 1 {
		return nil, ErrThreshold
	}
	coeffs := make([]*big.Int, t)
	coeffs[0] = new(big.Int).Mod(constant, modulus)
	for i := 1; i < t; i++ {
		c, err := randFieldElement(rand, modulus)
		if err != nil {
			return nil, fmt.Errorf("shamir: sample coefficient %d: %w", i, err)
		}
		coeffs[i] = c
	}
	return &Polynomial{Modulus: new(big.Int).Set(modulus), Coeffs: coeffs}, nil
}

// Eval evaluates the polynomial at x using Horner's rule.
func (p *Polynomial) Eval(x uint32) *big.Int {
	bx := new(big.Int).SetUint64(uint64(x))
	acc := new(big.Int)
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, bx)
		acc.Add(acc, p.Coeffs[i])
		acc.Mod(acc, p.Modulus)
	}
	return acc
}

// LagrangeCoefficient computes λ_i = Π_{j≠i} x_j / (x_j − x_i) mod modulus,
// the weight of share indices[i] when interpolating at zero.
func LagrangeCoefficient(modulus *big.Int, indices []uint32, i int) (*big.Int, error) {
	if i < 0 || i >= len(indices) {
		return nil, fmt.Errorf("shamir: coefficient position %d out of range", i)
	}
	xi := new(big.Int).SetUint64(uint64(indices[i]))
	num := big.NewInt(1)
	den := big.NewInt(1)
	for j, idx := range indices {
		if j == i {
			continue
		}
		xj := new(big.Int).SetUint64(uint64(idx))
		num.Mul(num, xj)
		num.Mod(num, modulus)
		diff := new(big.Int).Sub(xj, xi)
		den.Mul(den, diff)
		den.Mod(den, modulus)
	}
	if den.Sign() == 0 {
		return nil, ErrDuplicateIndex
	}
	den.ModInverse(den, modulus)
	lambda := num.Mul(num, den)
	lambda.Mod(lambda, modulus)
	return lambda, nil
}

// LagrangeCoefficients computes every interpolation-at-zero weight for
// the given index set at once, agreeing position-for-position with
// LagrangeCoefficient. All denominators are inverted with a single
// modular inversion (Montgomery batch inversion): the running products
// are accumulated forward, the total is inverted once, and individual
// inverses are unwound backward. Threshold combining calls this on every
// quorum, so the n-fold inversion saving is on the protocol hot path.
func LagrangeCoefficients(modulus *big.Int, indices []uint32) ([]*big.Int, error) {
	n := len(indices)
	if n == 0 {
		return nil, ErrTooFewShares
	}
	nums := make([]*big.Int, n)
	dens := make([]*big.Int, n)
	for i, idx := range indices {
		xi := new(big.Int).SetUint64(uint64(idx))
		num := big.NewInt(1)
		den := big.NewInt(1)
		for j, jdx := range indices {
			if j == i {
				continue
			}
			xj := new(big.Int).SetUint64(uint64(jdx))
			num.Mul(num, xj)
			num.Mod(num, modulus)
			diff := new(big.Int).Sub(xj, xi)
			den.Mul(den, diff)
			den.Mod(den, modulus)
		}
		if den.Sign() == 0 {
			return nil, ErrDuplicateIndex
		}
		nums[i] = num
		dens[i] = den
	}
	// Batch inversion: running[i] = den_0·…·den_i.
	running := make([]*big.Int, n)
	acc := big.NewInt(1)
	for i := 0; i < n; i++ {
		acc = new(big.Int).Mul(acc, dens[i])
		acc.Mod(acc, modulus)
		running[i] = acc
	}
	inv := new(big.Int).ModInverse(running[n-1], modulus)
	out := make([]*big.Int, n)
	for i := n - 1; i >= 0; i-- {
		denInv := inv
		if i > 0 {
			denInv = new(big.Int).Mul(inv, running[i-1])
			denInv.Mod(denInv, modulus)
			inv = new(big.Int).Mul(inv, dens[i])
			inv.Mod(inv, modulus)
		}
		lambda := new(big.Int).Mul(nums[i], denInv)
		lambda.Mod(lambda, modulus)
		out[i] = lambda
	}
	return out, nil
}

// randFieldElement samples a uniform element of [0, modulus).
func randFieldElement(rand io.Reader, modulus *big.Int) (*big.Int, error) {
	byteLen := (modulus.BitLen() + 15) / 8
	buf := make([]byte, byteLen)
	if _, err := io.ReadFull(rand, buf); err != nil {
		return nil, err
	}
	v := new(big.Int).SetBytes(buf)
	return v.Mod(v, modulus), nil
}
