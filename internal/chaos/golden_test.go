package chaos

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestGoldenTraceHashes pins the simulated campaigns' trace hashes across
// binaries: testdata/trace_hashes.golden was computed once and any change
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
		p, err := ProfileByName(fields[0])
		if err != nil {
			t.Fatal(err)
		}
		p = fastProfile(p)
		name := fields[0]
		if len(fields) == 4 {
			p.BatchSize, err = strconv.Atoi(strings.TrimPrefix(fields[1], "batch="))
			if err != nil {
				t.Fatalf("bad golden line %q: %v", line, err)
			}
			name += " " + fields[1]
			fields = fields[1:]
		}
		if len(fields) != 3 {
			t.Fatalf("bad golden line %q", line)
		}
		seed, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
		if got := RunSeed(p, seed).TraceHash; got != fields[2] {
			t.Errorf("%s seed %d: trace hash %s, pinned %s", name, seed, got, fields[2])
		}
		pinned++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pinned != 16 {
		t.Fatalf("golden file pins %d hashes, want 16", pinned)
	}
}
