// Package merkle implements the binary Merkle tree used to amortize one
// threshold signature over a batch of network updates. A controller hashes
// every update in a delivered batch into a tree, threshold-signs only the
// root, and each dispatched update carries a compact inclusion proof; a
// switch verifies the proof with pure hashing and pays the pairing check
// once per batch root instead of once per update.
//
// The construction is RFC 6962's (Certificate Transparency): leaf hashes
// are domain-separated from interior hashes (0x00 vs 0x01 prefixes, so an
// interior node can never be reinterpreted as a leaf and vice versa), and
// a tree over n leaves splits at the largest power of two strictly less
// than n, which handles any leaf count without padding. Proof size is
// ⌈log2 n⌉ hashes.
package merkle

import (
	"bytes"
	"crypto/sha256"
)

// HashSize is the byte length of every node hash.
const HashSize = sha256.Size

// leafPrefix and nodePrefix domain-separate the two hash uses.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// LeafHash hashes one leaf's content.
func LeafHash(leaf []byte) [HashSize]byte {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(leaf)
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// nodeHash combines two subtree hashes.
func nodeHash(left, right [HashSize]byte) [HashSize]byte {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(left[:])
	h.Write(right[:])
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// splitPoint returns the largest power of two strictly less than n (n >= 2).
func splitPoint(n int) int {
	k := 1
	for k<<1 < n {
		k <<= 1
	}
	return k
}

// Tree is a Merkle tree built once over a batch, answering the root and
// any leaf's inclusion proof without rehashing.
type Tree struct {
	n int
	// nodes holds every hash of the tree in post-order: a subtree over m
	// leaves starting at slot b occupies [b, b+2m−1) — its left subtree (k
	// leaves, k the split point) first, then its right subtree, then its own
	// root at b+2m−2.
	nodes [][HashSize]byte
}

// NewTree hashes the leaves and computes the root. An empty batch has no
// meaningful root; callers must not build trees over zero leaves (the
// batching layer never signs an empty batch).
func NewTree(leaves [][]byte) *Tree {
	t := &Tree{n: len(leaves)}
	if t.n > 0 {
		t.nodes = make([][HashSize]byte, 2*t.n-1)
		t.build(0, leaves)
	}
	return t
}

// build fills the slots of the subtree over leaves starting at slot b.
func (t *Tree) build(b int, leaves [][]byte) {
	m := len(leaves)
	if m == 1 {
		t.nodes[b] = LeafHash(leaves[0])
		return
	}
	k := splitPoint(m)
	t.build(b, leaves[:k])
	t.build(b+2*k-1, leaves[k:])
	t.nodes[b+2*m-2] = nodeHash(t.nodes[b+2*k-2], t.nodes[b+2*m-3])
}

// Root returns the tree root.
func (t *Tree) Root() [HashSize]byte {
	if t.n == 0 {
		return [HashSize]byte{}
	}
	return t.nodes[len(t.nodes)-1]
}

// Proof returns the inclusion proof for leaf index i: the sibling subtree
// hashes from the leaf up to the root. It returns nil when i is out of
// range.
func (t *Tree) Proof(i int) [][]byte {
	if i < 0 || i >= t.n {
		return nil
	}
	// Walk down from the root noting the sibling at each level, then lay
	// them out leaf-first in one buffer.
	var siblings [64]int
	depth := 0
	for b, m := 0, t.n; m > 1; depth++ {
		k := splitPoint(m)
		if i < k {
			siblings[depth] = b + 2*m - 3
			m = k
		} else {
			siblings[depth] = b + 2*k - 2
			b, i, m = b+2*k-1, i-k, m-k
		}
	}
	path := make([][]byte, depth)
	buf := make([]byte, depth*HashSize)
	for j := range path {
		h := buf[j*HashSize : (j+1)*HashSize : (j+1)*HashSize]
		copy(h, t.nodes[siblings[depth-1-j]][:])
		path[j] = h
	}
	return path
}

// Verify checks an inclusion proof: leaf content, its claimed index, the
// batch leaf count, the audit path, and the expected root. It is the
// switch-side check and uses only hashing. The index/size pair determines
// the left/right orientation at every level (RFC 6962's tree shape), so a
// proof cannot be replayed at a different position, and the path length
// must match the tree's depth at that position exactly.
func Verify(root []byte, leaf []byte, index, size int, path [][]byte) bool {
	if index < 0 || index >= size || size < 1 || len(root) != HashSize {
		return false
	}
	h, ok := proofRoot(LeafHash(leaf), index, size, path)
	return ok && bytes.Equal(h[:], root)
}

// proofRoot recomputes the subtree root from a leaf hash and its audit
// path, mirroring the tree's shape: the path is ordered leaf to root, so
// the top-level sibling is consumed last.
func proofRoot(h [HashSize]byte, index, size int, path [][]byte) ([HashSize]byte, bool) {
	if size == 1 {
		return h, len(path) == 0
	}
	if len(path) == 0 {
		return h, false // path shorter than the tree is deep
	}
	sib := path[len(path)-1]
	if len(sib) != HashSize {
		return h, false
	}
	var s [HashSize]byte
	copy(s[:], sib)
	k := splitPoint(size)
	if index < k {
		sub, ok := proofRoot(h, index, k, path[:len(path)-1])
		return nodeHash(sub, s), ok
	}
	sub, ok := proofRoot(h, index-k, size-k, path[:len(path)-1])
	return nodeHash(s, sub), ok
}
