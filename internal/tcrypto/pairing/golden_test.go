package pairing

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"
)

// goldenMessages are the fixed hash-to-curve inputs of vectors.golden.
var goldenMessages = []string{
	"",
	"a",
	"cicero",
	"flow-mod: s17 -> forward port 3",
	"update u42",
	"network update payload",
	"batch-root/0001",
	"batch-root/0002",
	"event/flow-teardown/h3->h9",
	"metadata/root/v2",
}

// goldenScalar is the fixed wide scalar of vectors.golden, cut to the
// group order's width (80 bits on fast254, 160 on std512).
func goldenScalar(p *Params) *big.Int {
	k, _ := new(big.Int).SetString("b5c0fbcfec4d3b2fe9b5dba58189dbbc1f83d9ab", 16)
	return k.Rsh(k, uint(160-p.R.BitLen()))
}

// goldenVectors computes every pinned output for one parameter set through
// the exported API only, as "<name> <hex>" lines.
func goldenVectors(p *Params) []string {
	var out []string
	emit := func(name string, b []byte) {
		out = append(out, fmt.Sprintf("%s %s", name, hex.EncodeToString(b)))
	}
	for i, m := range goldenMessages {
		emit(fmt.Sprintf("hash-to-g1/%d", i), p.PointBytes(p.HashToG1([]byte(m))))
	}
	one := big.NewInt(1)
	for _, sc := range []struct {
		name string
		k    *big.Int
	}{
		{"0", big.NewInt(0)},
		{"1", one},
		{"2", big.NewInt(2)},
		{"r-1", new(big.Int).Sub(p.R, one)},
		{"r", p.R},
		{"r+1", new(big.Int).Add(p.R, one)},
		{"wide", goldenScalar(p)},
	} {
		emit("scalar-mul/"+sc.name, p.PointBytes(p.ScalarMul(p.G, sc.k)))
	}
	a := p.HashToG1([]byte("golden/a"))
	b := p.HashToG1([]byte("golden/b"))
	c := p.HashToG1([]byte("golden/c"))
	k1 := goldenScalar(p)
	k2 := new(big.Int).Sub(p.R, big.NewInt(3)) // a Lagrange-like small negative
	k3 := p.HashToScalar([]byte("golden/k3"))
	emit("multi-scalar-mul", p.PointBytes(p.MultiScalarMul([]*Point{a, b, c}, []*big.Int{k1, k2, k3})))
	emit("pair", p.GTBytes(p.Pair(a, b)))
	emit("pair-prepared", p.GTBytes(p.PairPrepared(p.Prepare(a), b)))
	emit("pair-product", p.GTBytes(p.PairProduct(
		ProductTerm{Prep: p.Prepare(a), B: b},
		ProductTerm{A: c, B: p.ScalarMul(a, k3)},
	)))
	return out
}

// TestGoldenVectors pins the package's output bytes across field
// implementations: testdata/vectors.golden was computed once by the
// math/big arithmetic, and signatures, audit digests and verify-cache keys
// all hang off these encodings.
func TestGoldenVectors(t *testing.T) {
	f, err := os.Open("testdata/vectors.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		set, rest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad golden line %q", line)
		}
		want[set] = append(want[set], rest)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		params *Params
	}{
		{"fast254", Fast254()},
		{"std512", Std512()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.params
			got := goldenVectors(p)
			if len(got) != len(want[tc.name]) {
				t.Fatalf("computed %d vectors, golden file pins %d", len(got), len(want[tc.name]))
			}
			for i := range got {
				if got[i] != want[tc.name][i] {
					t.Errorf("vector %d:\n got %s\nwant %s", i, got[i], want[tc.name][i])
				}
			}
			// The vectors must cover the try-and-increment retry: at
			// least two messages whose first candidate x has a non-square
			// x³ + x.
			retries := 0
			for _, m := range goldenMessages {
				x := p.hashToField([]byte(m), 0)
				y2 := new(big.Int).Mul(x, x)
				y2.Mul(y2, x)
				y2.Add(y2, x)
				y2.Mod(y2, p.P)
				if big.Jacobi(y2, p.P) != 1 {
					retries++
				}
			}
			if retries < 2 {
				t.Fatalf("only %d golden messages need a counter > 0, want at least 2", retries)
			}
		})
	}
}
