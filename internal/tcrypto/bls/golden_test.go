package bls

import (
	"encoding/hex"
	"math/big"
	"os"
	"strings"
	"testing"

	"cicero/internal/tcrypto/pairing"
)

// goldenSignatures computes the pinned signatures for one parameter set:
// a fixed-key Sign, and a fixed-polynomial 2-of-4 threshold signature from
// shares 1 and 3 through CombineVerified.
func goldenSignatures(t *testing.T, params *pairing.Params) (sign, threshold string) {
	s := NewScheme(params)
	msg := []byte("flow-mod s3: dst=h7 -> output:2")
	sk := PrivateKey{Scalar: params.HashToScalar([]byte("golden/sk"))}
	sign = hex.EncodeToString(s.Sign(sk, msg).Bytes(s))

	// f(x) = a0 + a1·x over Z_r.
	a0 := params.HashToScalar([]byte("golden/a0"))
	a1 := params.HashToScalar([]byte("golden/a1"))
	gk := &GroupKey{T: 2, N: 4, Commitments: []*pairing.Point{params.ScalarBaseMul(a0), params.ScalarBaseMul(a1)}}
	gk.PK = PublicKey{Point: gk.Commitments[0]}
	var shares []SignatureShare
	for _, i := range []uint32{1, 3} {
		d := new(big.Int).Mul(a1, big.NewInt(int64(i)))
		d.Add(d, a0).Mod(d, params.R)
		shares = append(shares, s.SignShare(KeyShare{Index: i, Scalar: d}, msg))
	}
	sig, err := s.CombineVerified(gk, msg, shares)
	if err != nil {
		t.Fatalf("CombineVerified: %v", err)
	}
	return sign, hex.EncodeToString(sig.Bytes(s))
}

// TestGoldenVectors pins signature bytes across field implementations;
// testdata/vectors.golden was computed once by the math/big arithmetic.
func TestGoldenVectors(t *testing.T) {
	data, err := os.ReadFile("testdata/vectors.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("bad golden line %q", line)
		}
		want[fields[0]+" "+fields[1]] = fields[2]
	}
	if len(want) != 4 {
		t.Fatalf("golden file pins %d signatures, want 4", len(want))
	}
	for _, tc := range []struct {
		name   string
		params *pairing.Params
	}{
		{"fast254", pairing.Fast254()},
		{"std512", pairing.Std512()},
	} {
		sign, threshold := goldenSignatures(t, tc.params)
		if sign != want[tc.name+" sign"] {
			t.Errorf("%s sign:\n got %s\nwant %s", tc.name, sign, want[tc.name+" sign"])
		}
		if threshold != want[tc.name+" threshold-2-of-4"] {
			t.Errorf("%s threshold-2-of-4:\n got %s\nwant %s", tc.name, threshold, want[tc.name+" threshold-2-of-4"])
		}
	}
}
