package shamir

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

// testModulus is a small prime field for fast tests (the P-256 order would
// work identically).
var testModulus = func() *big.Int {
	m, _ := new(big.Int).SetString("1087150122137225958799007", 10)
	return m
}()

// Split shares secret among n participants with reconstruction threshold t.
// Participant indices are 1..n.
func Split(rand io.Reader, modulus, secret *big.Int, t, n int) ([]Share, error) {
	if t < 1 || t > n {
		return nil, ErrThreshold
	}
	poly, err := NewPolynomial(rand, modulus, secret, t)
	if err != nil {
		return nil, err
	}
	shares := make([]Share, n)
	for i := 1; i <= n; i++ {
		shares[i-1] = Share{Index: uint32(i), Value: poly.Eval(uint32(i))}
	}
	return shares, nil
}

// errZeroIndex reports a share with the reserved index 0.
var errZeroIndex = errors.New("shamir: share index must be non-zero")

// Reconstruct, the oracle the tests check shares against, recovers the
// secret from at least t shares by Lagrange interpolation at zero. Extra
// shares beyond the first t are ignored.
func Reconstruct(modulus *big.Int, shares []Share, t int) (*big.Int, error) {
	if t < 1 {
		return nil, ErrThreshold
	}
	if len(shares) < t {
		return nil, ErrTooFewShares
	}
	subset := shares[:t]
	indices := make([]uint32, t)
	seen := make(map[uint32]struct{}, t)
	for i, s := range subset {
		if s.Index == 0 {
			return nil, errZeroIndex
		}
		if _, dup := seen[s.Index]; dup {
			return nil, ErrDuplicateIndex
		}
		seen[s.Index] = struct{}{}
		indices[i] = s.Index
	}
	secret := new(big.Int)
	for i, s := range subset {
		lambda, err := LagrangeCoefficient(modulus, indices, i)
		if err != nil {
			return nil, err
		}
		term := new(big.Int).Mul(s.Value, lambda)
		secret.Add(secret, term)
		secret.Mod(secret, modulus)
	}
	return secret, nil
}

func TestSplitReconstructRoundTrip(t *testing.T) {
	secret := big.NewInt(424242)
	shares, err := Split(rand.Reader, testModulus, secret, 3, 5)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if len(shares) != 5 {
		t.Fatalf("expected 5 shares, got %d", len(shares))
	}
	got, err := Reconstruct(testModulus, shares[:3], 3)
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatalf("reconstructed %v, want %v", got, secret)
	}
}

func TestAnyThresholdSubsetReconstructs(t *testing.T) {
	secret := big.NewInt(987654321)
	const threshold, n = 3, 6
	shares, err := Split(rand.Reader, testModulus, secret, threshold, n)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	// Try every 3-subset of the 6 shares.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				subset := []Share{shares[i], shares[j], shares[k]}
				got, err := Reconstruct(testModulus, subset, threshold)
				if err != nil {
					t.Fatalf("Reconstruct(%d,%d,%d): %v", i, j, k, err)
				}
				if got.Cmp(secret) != 0 {
					t.Fatalf("subset (%d,%d,%d) reconstructed %v, want %v", i, j, k, got, secret)
				}
			}
		}
	}
}

func TestTooFewSharesFails(t *testing.T) {
	shares, err := Split(rand.Reader, testModulus, big.NewInt(7), 4, 7)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if _, err := Reconstruct(testModulus, shares[:3], 4); err != ErrTooFewShares {
		t.Fatalf("expected ErrTooFewShares, got %v", err)
	}
}

// TestSubThresholdRevealsNothing checks the hiding property operationally:
// interpolating with t−1 genuine shares plus one adversarial share can
// produce any value, so t−1 shares place no constraint on the secret.
func TestSubThresholdRevealsNothing(t *testing.T) {
	secret := big.NewInt(31337)
	shares, err := Split(rand.Reader, testModulus, secret, 3, 5)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	// Forge the third share; reconstruction must differ from the secret
	// (with overwhelming probability over the forged value).
	forged := shares[2].Clone()
	forged.Value.Add(forged.Value, big.NewInt(1))
	forged.Value.Mod(forged.Value, testModulus)
	got, err := Reconstruct(testModulus, []Share{shares[0], shares[1], forged}, 3)
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if got.Cmp(secret) == 0 {
		t.Fatal("forged share still reconstructed the true secret")
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := Split(rand.Reader, testModulus, big.NewInt(1), 0, 5); err != ErrThreshold {
		t.Errorf("t=0: expected ErrThreshold, got %v", err)
	}
	if _, err := Split(rand.Reader, testModulus, big.NewInt(1), 6, 5); err != ErrThreshold {
		t.Errorf("t>n: expected ErrThreshold, got %v", err)
	}
	shares, _ := Split(rand.Reader, testModulus, big.NewInt(1), 2, 3)
	dup := []Share{shares[0], shares[0]}
	if _, err := Reconstruct(testModulus, dup, 2); err != ErrDuplicateIndex {
		t.Errorf("expected ErrDuplicateIndex, got %v", err)
	}
	zero := []Share{{Index: 0, Value: big.NewInt(1)}, shares[1]}
	if _, err := Reconstruct(testModulus, zero, 2); err != errZeroIndex {
		t.Errorf("expected errZeroIndex, got %v", err)
	}
}

func TestLagrangeCoefficientsSumToOneOnConstants(t *testing.T) {
	// For any index set, Σ λ_i = 1 (interpolating the constant 1).
	indices := []uint32{1, 4, 9, 12}
	sum := new(big.Int)
	for i := range indices {
		lambda, err := LagrangeCoefficient(testModulus, indices, i)
		if err != nil {
			t.Fatalf("LagrangeCoefficient: %v", err)
		}
		sum.Add(sum, lambda)
		sum.Mod(sum, testModulus)
	}
	if sum.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("Σλ = %v, want 1", sum)
	}
}

// TestQuickRoundTrip property-tests Split/Reconstruct over random secrets,
// thresholds, and share subsets.
func TestQuickRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	f := func(raw int64) bool {
		secret := new(big.Int).SetInt64(raw)
		secret.Mod(secret, testModulus)
		n := 2 + rng.Intn(9)  // 2..10
		th := 1 + rng.Intn(n) // 1..n
		shares, err := Split(rand.Reader, testModulus, secret, th, n)
		if err != nil {
			return false
		}
		// Shuffle and take an arbitrary superset of size >= th.
		rng.Shuffle(len(shares), func(i, j int) { shares[i], shares[j] = shares[j], shares[i] })
		take := th + rng.Intn(n-th+1)
		got, err := Reconstruct(testModulus, shares[:take], th)
		return err == nil && got.Cmp(secret) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPolynomialEval(t *testing.T) {
	// f(x) = 5 + 3x + 2x² over the test field.
	poly := &Polynomial{
		Modulus: testModulus,
		Coeffs:  []*big.Int{big.NewInt(5), big.NewInt(3), big.NewInt(2)},
	}
	if got := poly.Eval(0); got.Cmp(big.NewInt(5)) != 0 {
		t.Errorf("f(0) = %v, want 5", got)
	}
	if got := poly.Eval(2); got.Cmp(big.NewInt(19)) != 0 {
		t.Errorf("f(2) = %v, want 19", got)
	}
	if got := poly.Threshold(); got != 3 {
		t.Errorf("Threshold = %d, want 3", got)
	}
}

func BenchmarkSplit(b *testing.B) {
	secret := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Split(rand.Reader, testModulus, secret, 4, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct(b *testing.B) {
	shares, _ := Split(rand.Reader, testModulus, big.NewInt(99), 4, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconstruct(testModulus, shares[:4], 4); err != nil {
			b.Fatal(err)
		}
	}
}
