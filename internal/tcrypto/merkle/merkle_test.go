package merkle

import (
	"fmt"
	"reflect"
	"testing"
)

// batch builds n distinct leaves.
func batch(n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf("update|%d|payload", i))
	}
	return leaves
}

// TestProofRoundTrip proves and verifies every leaf for every batch size
// from a single leaf through several non-powers of two.
func TestProofRoundTrip(t *testing.T) {
	for n := 1; n <= 20; n++ {
		leaves := batch(n)
		tree := NewTree(leaves)
		if tree.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, tree.Len())
		}
		root := tree.Root()
		for i := 0; i < n; i++ {
			proof := tree.Proof(i)
			if !Verify(root[:], leaves[i], i, n, proof) {
				t.Fatalf("n=%d leaf=%d: valid proof rejected", n, i)
			}
		}
	}
}

// TestProofSize checks the path length is ⌈log2 n⌉ for power-of-two sizes
// (the amortization argument: 64-update batches carry 6-hash proofs).
func TestProofSize(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		tree := NewTree(batch(n))
		want := 0
		for 1<<want < n {
			want++
		}
		if got := len(tree.Proof(0)); got != want {
			t.Fatalf("n=%d: proof has %d hashes, want %d", n, got, want)
		}
	}
}

// TestWrongLeafRejected checks a proof never validates different content.
func TestWrongLeafRejected(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 13} {
		leaves := batch(n)
		tree := NewTree(leaves)
		root := tree.Root()
		for i := 0; i < n; i++ {
			proof := tree.Proof(i)
			if Verify(root[:], []byte("forged update"), i, n, proof) {
				t.Fatalf("n=%d leaf=%d: forged leaf accepted", n, i)
			}
		}
	}
}

// TestWrongRootRejected checks a proof never validates against another
// batch's root.
func TestWrongRootRejected(t *testing.T) {
	leaves := batch(9)
	tree := NewTree(leaves)
	other := NewTree(batch(10)).Root()
	for i := range leaves {
		if Verify(other[:], leaves[i], i, 9, tree.Proof(i)) {
			t.Fatalf("leaf %d: proof accepted under a foreign root", i)
		}
	}
	if Verify(nil, leaves[0], 0, 9, tree.Proof(0)) {
		t.Fatal("nil root accepted")
	}
}

// TestWrongPositionRejected checks a proof is bound to its leaf index: a
// valid (leaf, path) pair presented at a different index must fail.
func TestWrongPositionRejected(t *testing.T) {
	leaves := batch(8)
	tree := NewTree(leaves)
	root := tree.Root()
	proof := tree.Proof(3)
	for i := 0; i < 8; i++ {
		if i == 3 {
			continue
		}
		if Verify(root[:], leaves[3], i, 8, proof) {
			t.Fatalf("proof for index 3 accepted at index %d", i)
		}
	}
	if Verify(root[:], leaves[3], 3, 4, proof) {
		t.Fatal("proof accepted under a wrong tree size")
	}
}

// TestMalformedProofRejected checks truncated, extended, and corrupted
// paths all fail, as do out-of-range indices.
func TestMalformedProofRejected(t *testing.T) {
	leaves := batch(6)
	tree := NewTree(leaves)
	root := tree.Root()
	proof := tree.Proof(2)
	if Verify(root[:], leaves[2], 2, 6, proof[:len(proof)-1]) {
		t.Fatal("truncated proof accepted")
	}
	extended := append(append([][]byte(nil), proof...), make([]byte, HashSize))
	if Verify(root[:], leaves[2], 2, 6, extended) {
		t.Fatal("extended proof accepted")
	}
	corrupted := make([][]byte, len(proof))
	for i := range proof {
		corrupted[i] = append([]byte(nil), proof[i]...)
	}
	corrupted[0][0] ^= 0xff
	if Verify(root[:], leaves[2], 2, 6, corrupted) {
		t.Fatal("corrupted proof accepted")
	}
	short := append(append([][]byte(nil), proof[:len(proof)-1]...), proof[len(proof)-1][:HashSize-1])
	if Verify(root[:], leaves[2], 2, 6, short) {
		t.Fatal("short sibling hash accepted")
	}
	if Verify(root[:], leaves[2], -1, 6, proof) || Verify(root[:], leaves[2], 6, 6, proof) {
		t.Fatal("out-of-range index accepted")
	}
	if tree.Proof(-1) != nil || tree.Proof(6) != nil {
		t.Fatal("Proof accepted an out-of-range index")
	}
}

// TestSingleLeaf checks the degenerate tree: root = leaf hash, empty path.
func TestSingleLeaf(t *testing.T) {
	leaves := batch(1)
	tree := NewTree(leaves)
	if root, want := tree.Root(), LeafHash(leaves[0]); root != want {
		t.Fatal("single-leaf root is not the leaf hash")
	}
	proof := tree.Proof(0)
	if len(proof) != 0 {
		t.Fatalf("single-leaf proof has %d hashes", len(proof))
	}
	root := tree.Root()
	if !Verify(root[:], leaves[0], 0, 1, proof) {
		t.Fatal("single-leaf proof rejected")
	}
}

// TestDomainSeparation checks an interior hash cannot masquerade as a
// leaf: a two-leaf tree's root must differ from the leaf hash of the
// concatenated leaf hashes.
func TestDomainSeparation(t *testing.T) {
	leaves := batch(2)
	tree := NewTree(leaves)
	l, r := LeafHash(leaves[0]), LeafHash(leaves[1])
	fake := LeafHash(append(append([]byte(nil), l[:]...), r[:]...))
	if tree.Root() == fake {
		t.Fatal("interior node collides with a leaf hash")
	}
}

// refRoot and refProof are RFC 6962's recursive definitions, rehashing every
// subtree they touch: the construction Tree must match byte for byte.
func refRoot(hashes [][HashSize]byte) [HashSize]byte {
	if len(hashes) == 1 {
		return hashes[0]
	}
	k := splitPoint(len(hashes))
	return nodeHash(refRoot(hashes[:k]), refRoot(hashes[k:]))
}

func refProof(hashes [][HashSize]byte, i int) [][]byte {
	if len(hashes) == 1 {
		return [][]byte{}
	}
	k := splitPoint(len(hashes))
	var path [][]byte
	var sibling [HashSize]byte
	if i < k {
		path, sibling = refProof(hashes[:k], i), refRoot(hashes[k:])
	} else {
		path, sibling = refProof(hashes[k:], i-k), refRoot(hashes[:k])
	}
	return append(path, sibling[:])
}

// TestTreeMatchesRecursiveConstruction: the stored interior nodes give the
// same root and the same proof, byte for byte, as recomputing them, for
// every tree size through 70 and every leaf.
func TestTreeMatchesRecursiveConstruction(t *testing.T) {
	for n := 1; n <= 70; n++ {
		leaves := batch(n)
		hashes := make([][HashSize]byte, n)
		for i, leaf := range leaves {
			hashes[i] = LeafHash(leaf)
		}
		tree := NewTree(leaves)
		if tree.Root() != refRoot(hashes) {
			t.Fatalf("n=%d: root differs from the recursive construction", n)
		}
		for i := 0; i < n; i++ {
			got, want := tree.Proof(i), refProof(hashes, i)
			if got == nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d leaf=%d: proof %x, recursive construction gives %x", n, i, got, want)
			}
		}
	}
}

func BenchmarkProof32(b *testing.B) {
	tree := NewTree(batch(32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Proof(i % 32)
	}
}
