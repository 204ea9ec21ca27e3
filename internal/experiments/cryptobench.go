package experiments

// Crypto microbenchmarks for cicero-bench. These are deliberately NOT in
// the experiment Registry: experiments replay the paper's figures in
// deterministic virtual time, while this suite measures real wall-clock
// crypto cost on the host machine and so can never be part of the
// reproducible `-experiment all` output. It exists to start the repo's
// performance trajectory: each run emits a machine-readable report
// (BENCH_crypto.json) that later sessions can diff.

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/pairing"
)

// CryptoBenchOp is one measured operation.
type CryptoBenchOp struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	Iterations  int    `json:"iterations"`
}

// CryptoBenchReport is the full machine-readable benchmark output.
type CryptoBenchReport struct {
	Params string          `json:"params"`
	Ops    []CryptoBenchOp `json:"ops"`
}

// RunCryptoBench measures the cryptographic hot paths — pairing with and
// without precomputation, hashing to the curve, share and aggregate
// verification, threshold combining at the quorum sizes used by the
// paper's deployments, and a switch's pool of two shares — on the
// Fast254 parameter set (the one every simulation and test uses).
func RunCryptoBench(opt Options) (*CryptoBenchReport, error) {
	params := pairing.Fast254()
	scheme := bls.NewScheme(params)
	report := &CryptoBenchReport{Params: "fast254"}

	ka, err := params.RandomScalar(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("cryptobench: %w", err)
	}
	pt := params.ScalarBaseMul(ka)
	hm := params.HashToG1([]byte("cryptobench/msg"))
	prep := params.Prepare(pt)

	// Each op runs for a target wall-clock window; quick mode shrinks the
	// window (noisier numbers, same shape). Alloc counts come from the
	// runtime's malloc counter, mirroring what testing -benchmem reports.
	target := 300 * time.Millisecond
	if opt.Quick {
		target = 25 * time.Millisecond
	}
	measure := func(name string, fn func()) {
		fn() // warm caches so steady-state cost is measured
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		iters := 0
		start := time.Now()
		var elapsed time.Duration
		for elapsed < target {
			fn()
			iters++
			elapsed = time.Since(start)
		}
		runtime.ReadMemStats(&after)
		report.Ops = append(report.Ops, CryptoBenchOp{
			Name:        name,
			NsPerOp:     elapsed.Nanoseconds() / int64(iters),
			AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
			Iterations:  iters,
		})
	}

	measure("pair", func() { params.Pair(pt, hm) })
	measure("pair/prepared", func() { params.PairPrepared(prep, hm) })
	measure("prepare", func() { params.Prepare(pt) })
	measure("scalar-mul", func() { params.ScalarMul(hm, ka) })
	measure("hash-to-g1", func() { params.HashToG1([]byte("cryptobench/h2g")) })
	// hash-to-curve is the candidate alone, which verification pairs
	// against: try-and-increment without the cofactor walk. How many
	// counters it tries depends on the message, so the op counts through
	// messages rather than repeat one.
	h2c := []byte("cryptobench/h2c/........")
	var ctr uint64
	measure("hash-to-curve", func() {
		binary.BigEndian.PutUint64(h2c[len(h2c)-8:], ctr)
		ctr++
		params.HashToCurve(h2c)
	})

	msg := []byte("cryptobench/threshold")
	for _, t := range []int{2, 4, 7} {
		gk, keyShares, err := scheme.Deal(rand.Reader, t, t+1)
		if err != nil {
			return nil, fmt.Errorf("cryptobench: deal t=%d: %w", t, err)
		}
		shares := make([]bls.SignatureShare, t)
		for i := 0; i < t; i++ {
			shares[i] = scheme.SignShare(keyShares[i], msg)
		}
		tt := t
		measure(fmt.Sprintf("combine/t=%d", tt), func() {
			if _, err := scheme.Combine(gk, shares); err != nil {
				panic(err)
			}
		})
		if t == 2 {
			// What a switch pays when its share pool completes
			// (dataplane/pool.go): decode the wire-encoded pool, hash,
			// combine, check, and walk the combination. The hash's cost
			// depends on the message, so the op cycles through pools of
			// poolMsgs messages.
			const poolMsgs = 64
			type poolCase struct {
				msg  []byte
				pool map[uint32][]byte
			}
			cases := make([]poolCase, poolMsgs)
			for i := range cases {
				m := []byte(fmt.Sprintf("cryptobench/pool/%d", i))
				pool := make(map[uint32][]byte, t)
				for _, ks := range keyShares[:t] {
					pool[ks.Index] = params.PointBytes(scheme.SignShare(ks, m).Point)
				}
				cases[i] = poolCase{m, pool}
			}
			next := 0
			measure("combine-verified/t=2/pool", func() {
				c := cases[next%poolMsgs]
				next++
				if _, err := scheme.CombineVerified(gk, c.msg, scheme.ParseShares(c.pool)); err != nil {
					panic(err)
				}
			})
		}
		if t == 4 {
			// sign/share, verify/share and verify/aggregate take a cleared
			// point and so leave out hashing; hash-and-sign/share and
			// verify/message are what a controller and a switch pay per
			// message, hashing included.
			hmt := scheme.HashToPoint(msg)
			measure("sign/share", func() { scheme.SignShareDigest(keyShares[0], hmt) })
			measure("hash-and-sign/share", func() { scheme.SignShare(keyShares[0], msg) })
			measure("verify/share", func() { scheme.VerifyShareDigest(gk, hmt, shares[0]) })
			measure("combine-verified/t=4", func() {
				if _, err := scheme.CombineVerified(gk, msg, shares); err != nil {
					panic(err)
				}
			})
			// t+1 shares, the first forged: the failed aggregate check,
			// culprit identification and the survivors' aggregate.
			forged := append(append([]bls.SignatureShare(nil), shares...), scheme.SignShare(keyShares[t], msg))
			forged[0].Point = params.Add(forged[0].Point, params.G)
			measure("combine-verified/t=4/one-forged", func() {
				if _, err := scheme.CombineVerified(gk, msg, forged); err != nil {
					panic(err)
				}
			})
			sig, err := scheme.Combine(gk, shares)
			if err != nil {
				return nil, fmt.Errorf("cryptobench: combine: %w", err)
			}
			measure("verify/aggregate", func() { scheme.VerifyDigest(gk.PK, hmt, sig) })
			measure("verify/message", func() { scheme.Verify(gk.PK, msg, sig) })
			cache := bls.NewVerifyCache(8)
			scheme.VerifyCached(cache, gk.PK, msg, sig)
			measure("verify/cached-hit", func() { scheme.VerifyCached(cache, gk.PK, msg, sig) })
		}
	}
	return report, nil
}

// WriteJSON emits the report as indented JSON.
func (r *CryptoBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render writes a human-readable summary, one op per line.
func (r *CryptoBenchReport) Render(w io.Writer) {
	fmt.Fprintf(w, "crypto microbenchmarks (%s)\n", r.Params)
	for _, op := range r.Ops {
		fmt.Fprintf(w, "%-32s %12d ns/op %8d allocs/op %8d iters\n",
			op.Name, op.NsPerOp, op.AllocsPerOp, op.Iterations)
	}
}
