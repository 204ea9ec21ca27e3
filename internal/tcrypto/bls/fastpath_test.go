package bls

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"cicero/internal/metrics"
	"cicero/internal/tcrypto/pairing"
)

// dealShares signs msg with every key share of a fresh (t, n) deal.
func dealShares(t *testing.T, s *Scheme, threshold, n int, msg []byte) (*GroupKey, []SignatureShare) {
	t.Helper()
	gk, keyShares, err := s.Deal(rand.Reader, threshold, n)
	if err != nil {
		t.Fatalf("Deal(%d,%d): %v", threshold, n, err)
	}
	sigShares := make([]SignatureShare, n)
	for i, ks := range keyShares {
		sigShares[i] = s.SignShare(ks, msg)
	}
	return gk, sigShares
}

// TestFilterVerifiedSharesDropsForgedShare is the adversarial soundness
// test: from a pool containing one forged share, culprit identification
// must drop exactly the culprit index.
func TestFilterVerifiedSharesDropsForgedShare(t *testing.T) {
	s := testScheme()
	msg := []byte("batch/adversarial")
	gk, shares := dealShares(t, s, 3, 5, msg)
	hm := s.HashToPoint(msg)

	for _, forge := range []struct {
		name   string
		mutate func([]SignatureShare)
	}{
		{"wrong-message share", func(pool []SignatureShare) {
			// Byzantine controller signs a different message under its
			// real key share but claims it is a share for msg.
			evil := s.Params.ScalarMul(s.HashToPoint([]byte("evil")), big3())
			pool[2].Point = evil
		}},
		{"random point", func(pool []SignatureShare) {
			k, _ := s.Params.RandomScalar(rand.Reader)
			pool[2].Point = s.Params.ScalarBaseMul(k)
		}},
		{"offset by generator", func(pool []SignatureShare) {
			pool[2].Point = s.Params.Add(pool[2].Point, s.Params.G)
		}},
	} {
		pool := make([]SignatureShare, len(shares))
		copy(pool, shares)
		forge.mutate(pool)
		valid := s.FilterVerifiedShares(gk, hm, pool)
		if len(valid) != len(pool)-1 {
			t.Fatalf("%s: expected %d surviving shares, got %d", forge.name, len(pool)-1, len(valid))
		}
		for _, sh := range valid {
			if sh.Index == pool[2].Index {
				t.Fatalf("%s: culprit index %d survived filtering", forge.name, sh.Index)
			}
		}
	}
}

func TestFilterVerifiedSharesDropsStructurallyInvalid(t *testing.T) {
	s := testScheme()
	msg := []byte("filter/structural")
	gk, shares := dealShares(t, s, 2, 3, msg)
	hm := s.HashToPoint(msg)
	bad := append([]SignatureShare{}, shares...)
	bad[0].Point = pairing.Infinity()
	bad[1].Index = 0
	valid := s.FilterVerifiedShares(gk, hm, bad)
	if len(valid) != 1 || valid[0].Index != shares[2].Index {
		t.Fatalf("infinity and zero-index shares must be dropped, kept %v", valid)
	}
	if got := s.FilterVerifiedShares(gk, hm, nil); len(got) != 0 {
		t.Fatalf("empty pool filtered to %d shares", len(got))
	}
}

// TestCombineVerifiedDedupesBeforeCombine asserts the duplicate-share fix:
// a pool with harmless duplicates of honest shares must take the
// optimistic path (no per-share verification), not the slow path.
func TestCombineVerifiedDedupesBeforeCombine(t *testing.T) {
	s := testScheme()
	msg := []byte("dedupe/optimistic")
	gk, shares := dealShares(t, s, 3, 4, msg)
	// Retransmission-shaped pool: share 1 delivered twice.
	pool := []SignatureShare{shares[0], shares[0], shares[1], shares[2]}
	beforeShare := metrics.Crypto.ShareVerifies.Load()
	sig, err := s.CombineVerified(gk, msg, pool)
	if err != nil {
		t.Fatalf("CombineVerified with duplicate share: %v", err)
	}
	if !s.Verify(gk.PK, msg, sig) {
		t.Fatal("aggregate from deduplicated pool invalid")
	}
	if d := metrics.Crypto.ShareVerifies.Load() - beforeShare; d != 0 {
		t.Fatalf("duplicate share forced %d per-share verifications; want 0", d)
	}
}

// TestFilterVerifiedSharesParallelMatchesSerial runs culprit
// identification from several goroutines on one Scheme (every node of an
// in-process deployment shares it, memoized verification keys included);
// each must reach the per-share verdicts a serial pass computes.
func TestFilterVerifiedSharesParallelMatchesSerial(t *testing.T) {
	s := testScheme()
	msg := []byte("filter/parallel")
	gk, shares := dealShares(t, s, 3, 8, msg)
	hm := s.HashToPoint(msg)
	pool := append([]SignatureShare{}, shares...)
	pool[1].Point = s.Params.Add(pool[1].Point, s.Params.G)
	pool[5].Point = s.Params.ScalarBaseMul(big3())
	var wg sync.WaitGroup
	got := make([][]SignatureShare, 4)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = s.FilterVerifiedShares(gk, hm, pool)
		}(g)
	}
	wg.Wait()
	var want []uint32
	for _, sh := range pool {
		if s.VerifyShareDigest(gk, hm, sh) {
			want = append(want, sh.Index)
		}
	}
	if len(want) != len(pool)-2 {
		t.Fatalf("serial pass kept %d of %d shares, want %d", len(want), len(pool), len(pool)-2)
	}
	for g, valid := range got {
		if len(valid) != len(want) {
			t.Fatalf("goroutine %d kept %d shares, serial pass %d", g, len(valid), len(want))
		}
		for i, sh := range valid {
			if sh.Index != want[i] {
				t.Fatalf("goroutine %d: share %d has index %d, serial pass %d", g, i, sh.Index, want[i])
			}
		}
	}
}

// TestUnclearedCheckMatchesClearedEquation pins the identity checkOn
// rests on. For candidates c with h·c ≠ ∞ — hashed messages, and c + T
// for a point T of the cofactor part (h·T = ∞) — the check on c,
// e(G′, σ)·e(X, −c) = 1, agrees with the equation on the cleared point,
// e(G, σ)·e(X, −h·c) = 1, for the honest σ, another message's σ, σ plus a
// cofactor point, and ∞. h·c is computed with big.Int arithmetic. On a
// degenerate candidate c = T the check on c rejects the honest σ, and
// Verify's and CombineVerified's decisions on it are still those of the
// equation on HashToG1(msg).
func TestUnclearedCheckMatchesClearedEquation(t *testing.T) {
	s := testScheme()
	p := s.Params
	sk, pk, err := s.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	key := pairing.ProductTerm{Prep: s.preparedKey(pk.Point)}
	g, gPrime := s.prepared()
	hInv := new(big.Int).ModInverse(p.H, p.R)
	// cofactorPart is c minus its G1 component (h⁻¹ mod r)·h·c.
	cofactorPart := func(msg []byte) *pairing.Point {
		return p.Add(p.HashToCurve(msg), p.Neg(p.ScalarMul(p.HashToG1(msg), hInv)))
	}
	cleared := func(c *pairing.Point) *pairing.Point {
		hc := affineMul(p.P, affineOf(p.PointBytes(c)), p.H)
		if hc.x == nil {
			return pairing.Infinity()
		}
		pt, err := p.ParsePoint(affineBytes(s, hc))
		if err != nil {
			t.Fatalf("h·c is not in G1: %v", err)
		}
		return pt
	}
	for i := 0; i < 4; i++ {
		msg := []byte(fmt.Sprintf("identity/%d", i))
		honest := s.Sign(sk, msg).Point
		other := s.Sign(sk, []byte(fmt.Sprintf("identity/other/%d", i))).Point
		mauled := p.Add(honest, cofactorPart([]byte(fmt.Sprintf("identity/t/%d", i))))
		c := p.HashToCurve(msg)
		for ci, cand := range []*pairing.Point{c, p.Add(c, cofactorPart([]byte(fmt.Sprintf("identity/t2/%d", i))))} {
			hc := cleared(cand)
			if hc.IsInfinity() {
				t.Fatalf("message %d candidate %d: h·c = ∞", i, ci)
			}
			for si, sig := range []*pairing.Point{honest, other, mauled, pairing.Infinity()} {
				fast := s.pairsToOne(gPrime, key, cand, sig)
				if want := s.pairsToOne(g, key, hc, sig); fast != want {
					t.Fatalf("message %d candidate %d σ %d: check on c = %v, on h·c = %v", i, ci, si, fast, want)
				}
				if wantPass := si == 0 || si == 2; fast != wantPass {
					t.Fatalf("message %d candidate %d σ %d: check on c = %v", i, ci, si, fast)
				}
			}
		}

		tp := cofactorPart(msg)
		if !cleared(tp).IsInfinity() {
			t.Fatal("the cofactor part of c is not killed by h")
		}
		if s.pairsToOne(gPrime, key, tp, honest) {
			t.Fatalf("message %d: the check on a degenerate candidate passed", i)
		}
		if !s.checkOn(key, msg, tp, honest) || s.checkOn(key, msg, tp, other) {
			t.Fatalf("message %d: on a degenerate candidate Verify does not decide as on HashToG1(msg)", i)
		}
		gk, shares := dealShares(t, s, 3, 4, msg)
		forged := append([]SignatureShare(nil), shares...)
		forged[1].Point = p.Add(forged[1].Point, p.G)
		for _, pool := range [][]SignatureShare{shares, forged} {
			want, wantErr := s.CombineVerified(gk, msg, pool)
			got, err := s.combineVerifiedOn(gk, msg, tp, pool)
			if err != wantErr || !got.Point.Equal(want.Point) {
				t.Fatalf("message %d: CombineVerified on a degenerate candidate gave %v, %v; on HashToCurve %v, %v",
					i, got.Point, err, want.Point, wantErr)
			}
		}
	}
}

// TestCombineVerifiedCost pins what CombineVerified costs once G, G′ and
// the group key are prepared and the Lagrange set and share keys memoized.
// An honest pool: one product pairing, no share check, no preparation.
// One forged share: the counts a check on the cleared point always had —
// the failed aggregate, one check per share, the survivors' aggregate —
// plus one cofactor walk, which clears the hash point for them and which
// no counter sees.
func TestCombineVerifiedCost(t *testing.T) {
	s := testScheme()
	msg := []byte("cost/combine-verified")
	gk, shares := dealShares(t, s, 3, 4, msg)
	forged := append([]SignatureShare(nil), shares...)
	forged[0].Point = s.Params.Add(forged[0].Point, s.Params.G)
	counts := func() [3]uint64 {
		c := &metrics.Crypto
		return [3]uint64{c.PairingProducts.Load(), c.ShareVerifies.Load(), c.PointPrepares.Load()}
	}
	run := func(pool []SignatureShare) [3]uint64 {
		before := counts()
		if _, err := s.CombineVerified(gk, msg, pool); err != nil {
			t.Fatal(err)
		}
		after := counts()
		return [3]uint64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}
	}
	run(shares)
	run(forged)
	if got := run(shares); got != [3]uint64{1, 0, 0} {
		t.Fatalf("honest pool: %d product pairings, %d share checks, %d preparations; want 1, 0, 0", got[0], got[1], got[2])
	}
	if got := run(forged); got != [3]uint64{6, 4, 0} {
		t.Fatalf("one forged share: %d product pairings, %d share checks, %d preparations; want 6, 4, 0", got[0], got[1], got[2])
	}
}

func TestVerifyCachedHitAndForgedMismatch(t *testing.T) {
	s := testScheme()
	sk, pk, _ := s.GenerateKey(rand.Reader)
	msg := []byte("cache/hit")
	sig := s.Sign(sk, msg)
	cache := NewVerifyCache(8)

	if !s.VerifyCached(cache, pk, msg, sig) {
		t.Fatal("first verification (miss) rejected valid signature")
	}
	before := metrics.Crypto.PairingProducts.Load()
	if !s.VerifyCached(cache, pk, msg, sig) {
		t.Fatal("cached verification rejected valid signature")
	}
	if metrics.Crypto.PairingProducts.Load() != before {
		t.Fatal("cache hit still performed pairing work")
	}
	// Uniqueness: a different signature for a cached (pk, msg) is a
	// forgery and must be rejected without pairing work.
	forged := Signature{Point: s.Params.Add(sig.Point, s.Params.G)}
	if s.VerifyCached(cache, pk, msg, forged) {
		t.Fatal("cache accepted forged signature")
	}
	if metrics.Crypto.PairingProducts.Load() != before {
		t.Fatal("forged-signature rejection performed pairing work")
	}
}

// TestVerifyCacheNeverHitsDifferentDigest asserts the cache keying: an
// entry stored for one message must never satisfy a lookup for another.
func TestVerifyCacheNeverHitsDifferentDigest(t *testing.T) {
	s := testScheme()
	sk, pk, _ := s.GenerateKey(rand.Reader)
	cache := NewVerifyCache(64)
	sigA := s.Sign(sk, []byte("message A"))
	if !s.VerifyCached(cache, pk, []byte("message A"), sigA) {
		t.Fatal("valid signature rejected")
	}
	for i := 0; i < 16; i++ {
		msg := []byte(fmt.Sprintf("message B%d", i))
		hits := metrics.Crypto.VerifyCacheHits.Load()
		// sigA is a forgery for msg; a cache hit here would mean the
		// lookup key ignored the message digest.
		if s.VerifyCached(cache, pk, msg, sigA) {
			t.Fatalf("signature for message A verified for %q", msg)
		}
		if metrics.Crypto.VerifyCacheHits.Load() != hits {
			t.Fatalf("cache hit for different message digest %q", msg)
		}
	}
}

func TestVerifyCacheLRUEviction(t *testing.T) {
	s := testScheme()
	sk, pk, _ := s.GenerateKey(rand.Reader)
	cache := NewVerifyCache(2)
	for i := 0; i < 4; i++ {
		msg := []byte(fmt.Sprintf("evict/%d", i))
		if !s.VerifyCached(cache, pk, msg, s.Sign(sk, msg)) {
			t.Fatalf("message %d rejected", i)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache length %d after eviction; want 2", cache.Len())
	}
	// The two oldest entries are gone: re-verifying message 0 is a miss.
	misses := metrics.Crypto.VerifyCacheMisses.Load()
	msg0 := []byte("evict/0")
	if !s.VerifyCached(cache, pk, msg0, s.Sign(sk, msg0)) {
		t.Fatal("re-verification after eviction failed")
	}
	if metrics.Crypto.VerifyCacheMisses.Load() == misses {
		t.Fatal("expected a cache miss after LRU eviction")
	}
}

func TestSharePublicKeyCached(t *testing.T) {
	s := testScheme()
	gk, keyShares, err := s.Deal(rand.Reader, 3, 4)
	if err != nil {
		t.Fatalf("Deal: %v", err)
	}
	for _, ks := range keyShares {
		first := s.SharePublicKey(gk, ks.Index)
		second := s.SharePublicKey(gk, ks.Index)
		if first != second { // pointer identity: second call must be the memo
			t.Fatalf("share %d: verification key not memoized", ks.Index)
		}
		if !first.Equal(s.Params.ScalarBaseMul(ks.Scalar)) {
			t.Fatalf("share %d: cached verification key wrong", ks.Index)
		}
	}
}

func big3() *big.Int { return big.NewInt(3) }

func benchCombineT(b *testing.B, threshold int) {
	s := testScheme()
	msg := []byte("bench/combine")
	gk, keyShares, err := s.Deal(rand.Reader, threshold, threshold+1)
	if err != nil {
		b.Fatalf("Deal: %v", err)
	}
	shares := make([]SignatureShare, threshold)
	for i := 0; i < threshold; i++ {
		shares[i] = s.SignShare(keyShares[i], msg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Combine(gk, shares); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombineT2(b *testing.B) { benchCombineT(b, 2) }
func BenchmarkCombineT4(b *testing.B) { benchCombineT(b, 4) }
func BenchmarkCombineT7(b *testing.B) { benchCombineT(b, 7) }

func BenchmarkCombineVerifiedT4(b *testing.B) {
	s := testScheme()
	msg := []byte("bench/combine-verified")
	gk, keyShares, _ := s.Deal(rand.Reader, 4, 5)
	shares := make([]SignatureShare, 4)
	for i := 0; i < 4; i++ {
		shares[i] = s.SignShare(keyShares[i], msg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.CombineVerified(gk, msg, shares); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyShare(b *testing.B) {
	s := testScheme()
	msg := []byte("bench/share")
	gk, keyShares, _ := s.Deal(rand.Reader, 3, 4)
	sh := s.SignShare(keyShares[0], msg)
	hm := s.HashToPoint(msg)
	s.VerifyShareDigest(gk, hm, sh) // warm VK cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.VerifyShareDigest(gk, hm, sh) {
			b.Fatal("share verify failed")
		}
	}
}

func BenchmarkVerifyCachedHit(b *testing.B) {
	s := testScheme()
	sk, pk, _ := s.GenerateKey(rand.Reader)
	msg := []byte("bench/cache-hit")
	sig := s.Sign(sk, msg)
	cache := NewVerifyCache(8)
	s.VerifyCached(cache, pk, msg, sig)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.VerifyCached(cache, pk, msg, sig) {
			b.Fatal("cached verify failed")
		}
	}
}
