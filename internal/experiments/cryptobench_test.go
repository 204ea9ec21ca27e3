package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunCryptoBench(t *testing.T) {
	if testing.Short() {
		t.Skip("microbenchmarks are wall-clock bound")
	}
	report, err := RunCryptoBench(Options{Quick: true})
	if err != nil {
		t.Fatalf("RunCryptoBench: %v", err)
	}
	want := []string{
		"pair", "pair/prepared", "prepare", "scalar-mul", "hash-to-g1",
		"combine/t=2", "combine/t=4", "combine/t=7",
		"sign/share", "hash-and-sign/share", "verify/share",
		"combine-verified/t=4", "combine-verified/t=4/one-forged",
		"verify/aggregate", "verify/message", "verify/cached-hit",
	}
	got := make(map[string]CryptoBenchOp, len(report.Ops))
	for _, op := range report.Ops {
		got[op.Name] = op
		if op.NsPerOp <= 0 || op.Iterations <= 0 {
			t.Errorf("op %s: non-positive measurement %+v", op.Name, op)
		}
	}
	for _, name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("missing op %q", name)
		}
	}
	// The fast path must beat the naive pairing in the same report.
	if got["pair/prepared"].NsPerOp >= got["pair"].NsPerOp {
		t.Errorf("prepared pairing (%d ns) not faster than plain pairing (%d ns)",
			got["pair/prepared"].NsPerOp, got["pair"].NsPerOp)
	}

	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded CryptoBenchReport
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(decoded.Ops) != len(report.Ops) {
		t.Fatalf("JSON round-trip lost ops: %d != %d", len(decoded.Ops), len(report.Ops))
	}

	var human bytes.Buffer
	report.Render(&human)
	if !strings.Contains(human.String(), "ns/op") {
		t.Fatal("Render produced no per-op lines")
	}
}
