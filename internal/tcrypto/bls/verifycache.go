package bls

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"cicero/internal/metrics"
	"cicero/internal/tcrypto/pairing"
)

// VerifyCache is a small LRU of verification results keyed by
// (public key, message). BLS group signatures are unique — σ = x·H(m) is
// the only point verifying under X = x·G — so once a signature for a
// message has been verified, any later candidate for the same key and
// message is decided by comparing points: equal means verified, different
// means forged. Both directions skip the pairing entirely. Uniqueness
// holds among points of G1, which is all pairing.ParsePoint lets in.
//
// metarepo.Store holds one for root envelopes. Switches and controllers
// do not: their own latches (applied, a pool's verified flag, the config
// phase) already stop a message from being verified twice (DESIGN.md §6).
type VerifyCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List
	m   map[[sha256.Size]byte]*list.Element
}

type verifyEntry struct {
	key [sha256.Size]byte
	sig *pairing.Point // the verified signature (points are immutable)
}

// NewVerifyCache returns an LRU holding at most capacity verified
// signatures.
func NewVerifyCache(capacity int) *VerifyCache {
	return &VerifyCache{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[[sha256.Size]byte]*list.Element),
	}
}

// cacheKey binds a cache slot to the public key and the exact message.
func (c *VerifyCache) cacheKey(scheme *Scheme, pk *pairing.Point, msg []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte("cicero/bls/verify-cache/v1"))
	h.Write(scheme.Params.PointBytes(pk))
	h.Write(msg)
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// lookup returns the verified signature for key, if present, promoting
// the entry to most-recently-used.
func (c *VerifyCache) lookup(key [sha256.Size]byte) (*pairing.Point, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*verifyEntry).sig, true
}

// store records a verified signature, evicting the least-recently-used
// entry when full. The cache keeps the point, not its encoding, so a hit
// hands it back as is: ParsePoint is the trust boundary for wire bytes
// and pays a subgroup check that a point this process verified does not
// need again.
func (c *VerifyCache) store(key [sha256.Size]byte, sig *pairing.Point) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*verifyEntry).sig = sig
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&verifyEntry{key: key, sig: sig})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*verifyEntry).key)
	}
}

// VerifyCached is Verify with memoization through cache. A nil cache
// degrades to plain Verify.
func (s *Scheme) VerifyCached(cache *VerifyCache, pk PublicKey, msg []byte, sig Signature) bool {
	if cache == nil {
		return s.Verify(pk, msg, sig)
	}
	key := cache.cacheKey(s, pk.Point, msg)
	if cached, ok := cache.lookup(key); ok {
		metrics.Crypto.VerifyCacheHits.Add(1)
		// Uniqueness of BLS signatures: the same point is a proof of
		// validity, a different one a proof of forgery.
		return cached.Equal(sig.Point)
	}
	metrics.Crypto.VerifyCacheMisses.Add(1)
	if !s.Verify(pk, msg, sig) {
		return false
	}
	cache.store(key, sig.Point)
	return true
}
