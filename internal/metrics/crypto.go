package metrics

import "sync/atomic"

// CryptoCounters tracks process-wide totals of expensive cryptographic
// operations and the effectiveness of the crypto fast paths (pairing
// precomputation, product-of-pairings verification, and
// verification/Lagrange caching). Counters are atomic because the nodes of
// a live deployment update them from their own goroutines.
//
// They meter real work only: simulated virtual time is charged separately
// by the protocol cost model (internal/protocol.CostModel) and is never
// derived from these counts, so enabling or disabling any fast path
// cannot perturb experiment output.
type CryptoCounters struct {
	// Pairings counts full pairing evaluations (Miller loop plus final
	// exponentiation) with no precomputation.
	Pairings atomic.Uint64
	// PreparedPairings counts pairings replayed from cached Miller lines.
	PreparedPairings atomic.Uint64
	// PairingProducts counts shared-loop product-of-pairings evaluations
	// (each replaces two or more full pairings).
	PairingProducts atomic.Uint64
	// PointPrepares counts Miller-line precomputations (paid once per
	// long-lived verification key).
	PointPrepares atomic.Uint64
	// ShareVerifies counts per-share pairing checks (the culprit
	// identification fallback).
	ShareVerifies atomic.Uint64
	// VerifyCacheHits/Misses meter the LRUs of verified (message digest,
	// signature) pairs.
	VerifyCacheHits   atomic.Uint64
	VerifyCacheMisses atomic.Uint64
	// LagrangeCacheHits/Misses meter memoized Lagrange coefficient sets
	// per quorum index-set.
	LagrangeCacheHits   atomic.Uint64
	LagrangeCacheMisses atomic.Uint64
	// SignatureBytes accumulates the serialized size of every signature
	// and signature share produced, so benchmarks can report signature
	// bytes per update (batching amortizes one signature across a batch).
	SignatureBytes atomic.Uint64
}

// Crypto is the process-wide crypto counter set.
var Crypto CryptoCounters

// Snapshot returns the current counter values by name.
func (c *CryptoCounters) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"pairings":              c.Pairings.Load(),
		"prepared_pairings":     c.PreparedPairings.Load(),
		"pairing_products":      c.PairingProducts.Load(),
		"point_prepares":        c.PointPrepares.Load(),
		"share_verifies":        c.ShareVerifies.Load(),
		"verify_cache_hits":     c.VerifyCacheHits.Load(),
		"verify_cache_misses":   c.VerifyCacheMisses.Load(),
		"lagrange_cache_hits":   c.LagrangeCacheHits.Load(),
		"lagrange_cache_misses": c.LagrangeCacheMisses.Load(),
		"signature_bytes":       c.SignatureBytes.Load(),
	}
}

// Reset zeroes all counters (used by tests and experiment harnesses).
func (c *CryptoCounters) Reset() {
	c.Pairings.Store(0)
	c.PreparedPairings.Store(0)
	c.PairingProducts.Store(0)
	c.PointPrepares.Store(0)
	c.ShareVerifies.Store(0)
	c.VerifyCacheHits.Store(0)
	c.VerifyCacheMisses.Store(0)
	c.LagrangeCacheHits.Store(0)
	c.LagrangeCacheMisses.Store(0)
	c.SignatureBytes.Store(0)
}
