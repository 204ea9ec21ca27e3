package chaos

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestGoldenTraceHashes pins the simulated campaigns' trace hashes across
// binaries, canary runs included: testdata/trace_hashes.golden was computed once and any change
// to the chaos-RNG draw order, the event interleaving or a trace string
// moves a hash. (TestDeterministicTraceHash only compares two runs of one
// binary.)
func TestGoldenTraceHashes(t *testing.T) {
	f, err := os.Open("testdata/trace_hashes.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pinned := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Fatalf("bad golden line %q", line)
		}
		p, err := ProfileByName(fields[0])
		if err != nil {
			t.Fatal(err)
		}
		p = fastProfile(p)
		name := strings.Join(fields[:len(fields)-2], " ")
		for _, tok := range fields[1 : len(fields)-2] {
			switch {
			case tok == "canary":
				p.Canary = true
			case strings.HasPrefix(tok, "batch="):
				if p.BatchSize, err = strconv.Atoi(strings.TrimPrefix(tok, "batch=")); err != nil {
					t.Fatalf("bad golden line %q: %v", line, err)
				}
			default:
				t.Fatalf("bad golden line %q: unknown token %q", line, tok)
			}
		}
		seed, err := strconv.ParseInt(fields[len(fields)-2], 10, 64)
		if err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
		if want, got := fields[len(fields)-1], RunSeed(p, seed).TraceHash; got != want {
			t.Errorf("%s seed %d: trace hash %s, pinned %s", name, seed, got, want)
		}
		pinned++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pinned != 19 {
		t.Fatalf("golden file pins %d hashes, want 19", pinned)
	}
}
