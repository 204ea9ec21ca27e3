package main

import "testing"

func TestExpectedUpdates(t *testing.T) {
	one := hostPair{Src: "a", Dst: "b", Path: []string{"s1"}}
	three := hostPair{Src: "a", Dst: "c", Path: []string{"s1", "s2", "s3"}}
	ops := opList{{one, three}, {three}}
	// Client 0 alternates a 1-switch and a 3-switch pair; client 1 repeats
	// a 3-switch pair. Each cycle adds and deletes one rule per switch.
	for _, c := range []struct {
		from, to int
		want     uint64
	}{
		{0, 1, 2*1 + 2*3},
		{1, 2, 2*3 + 2*3},
		{0, 4, 2*(1+3+1+3) + 2*(3*4)},
		{2, 2, 0},
	} {
		if got := ops.expectedUpdates(c.from, c.to); got != c.want {
			t.Errorf("expectedUpdates(%d, %d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestOpsAreSeededAndDisjoint(t *testing.T) {
	g, err := benchTopology()
	if err != nil {
		t.Fatal(err)
	}
	pairs := usablePairs(g)
	if len(pairs) != 992 {
		t.Fatalf("topology yields %d usable pairs, want 992", len(pairs))
	}
	a, err := makeOps(pairs, 32, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeOps(pairs, 32, 7, 1)
	other, _ := makeOps(pairs, 32, 8, 1)
	seen := make(map[pairKey]bool)
	same := true
	for c := range a {
		if len(a[c]) != 992/32 {
			t.Fatalf("client %d got %d pairs, want %d", c, len(a[c]), 992/32)
		}
		for i, p := range a[c] {
			key := pairKey{p.Src, p.Dst}
			if seen[key] {
				t.Fatalf("pair %v dealt twice", key)
			}
			seen[key] = true
			if q := b[c][i]; q.Src != p.Src || q.Dst != p.Dst {
				t.Fatalf("same seed and round gave different lists")
			}
			if q := other[c][i]; q.Src != p.Src || q.Dst != p.Dst {
				same = false
			}
		}
	}
	if same {
		t.Error("a different seed gave the same lists")
	}
	if _, err := makeOps(pairs[:3], 4, 1, 0); err == nil {
		t.Error("makeOps accepted more clients than pairs")
	}
}
