package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"cicero/internal/metrics"
	"cicero/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick.golden from what the experiments render now")

const goldenPath = "testdata/quick.golden"

// frozen lists the experiments whose rendering is a function of the options
// alone: virtual time, or digests of protocol decisions. The others print
// wall-clock readings.
var frozen = []string{"ablations", "crosscheck", "fig11a", "fig11b", "fig11c", "fig11d",
	"fig12a", "fig12b", "fig12c", "fig12d", "table1", "table2"}

// readGolden returns the pinned SHA-256 of each frozen experiment's
// rendering, in hex.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	text, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden renderings: %v (create them with go test -run TestAllExperimentsRunQuick -update)", err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden renderings: bad line %q", line)
		}
		golden[name] = sum
	}
	return golden
}

// TestAllExperimentsRunQuick smoke-tests every registered experiment at
// CI scale: each must run to completion, render at least one table and
// pass its own gate. What a frozen experiment renders is pinned byte for
// byte by its SHA-256 in testdata/quick.golden: a refactor that moves a
// figure fails here, and the file is regenerated (-update) only by a
// change that means to move one and says so.
func TestAllExperimentsRunQuick(t *testing.T) {
	opt := Options{Quick: true, Flows: 60, Seed: 13}
	rendered := map[string]string{}
	var golden map[string]string
	if !*updateGolden {
		if golden = readGolden(t); len(golden) != len(frozen) {
			t.Errorf("%s pins %d experiments, want the %d frozen ones", goldenPath, len(golden), len(frozen))
		}
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			// distrib's kill -9 campaign is wall-clock, and recovery after a
			// SIGKILL has open flakes with no deterministic reproducer
			// (ROADMAP item 1; resync-divergence in about one `go test ./...`
			// run in six on a two-core box, hidden until Run could fail). The
			// experiment and CI stay strict; this smoke test gives it three
			// tries and logs every failed one.
			attempts := 1
			if name == "distrib" {
				attempts = 3
			}
			var sb strings.Builder
			var err error
			for i := 1; i <= attempts; i++ {
				sb.Reset()
				if err = Run(name, opt, &sb); err == nil {
					break
				}
				t.Logf("Run(%s) attempt %d of %d: %v", name, i, attempts, err)
			}
			if err != nil {
				t.Fatalf("Run(%s): %v", name, err)
			}
			if !strings.Contains(sb.String(), "==") {
				t.Fatalf("Run(%s) rendered no table:\n%s", name, sb.String())
			}
			if name == "crosscheck" {
				checkCrosscheckRows(t, sb.String())
			}
			if slices.Contains(frozen, name) {
				rendered[name] = fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
				if !*updateGolden && rendered[name] != golden[name] {
					t.Errorf("rendering has sha256 %s, %s pins %q: the figure moved\n%s", rendered[name], goldenPath, golden[name], sb.String())
				}
			}
		})
	}
	if *updateGolden {
		var out strings.Builder
		out.WriteString("# SHA-256 of what each frozen experiment renders under TestAllExperimentsRunQuick's options.\n")
		for _, name := range frozen {
			fmt.Fprintf(&out, "%s %s\n", name, rendered[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExperimentsDeterministic asserts the reproducibility claim: the same
// experiment with the same seed renders byte-identical output.
func TestExperimentsDeterministic(t *testing.T) {
	opt := Options{Quick: true, Flows: 80, Seed: 17}
	for _, name := range []string{"fig11a", "fig12b", "table1", "crosscheck"} {
		var a, b strings.Builder
		if err := Run(name, opt, &a); err != nil {
			t.Fatalf("Run(%s) #1: %v", name, err)
		}
		if err := Run(name, opt, &b); err != nil {
			t.Fatalf("Run(%s) #2: %v", name, err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s is not deterministic across identical runs", name)
		}
	}
}

// checkCrosscheckRows asserts the quick gate's matrix: one row per leg for
// three backends x {1, 8, 32} x {sequential, concurrent} plus the two
// controller-aggregation legs, every comparison made and true, and every
// leg having applied the updates its pairs need (6 pairs cross 12 switches,
// 24 pairs cross 64).
func checkCrosscheckRows(t *testing.T, out string) {
	t.Helper()
	legs := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 12 || (f[0] != "simnet" && f[0] != "inproc" && f[0] != "tcp") {
			continue
		}
		legs[f[0]+"/"+f[3]]++
		want := []string{"6", "12", "true", "true", "true"}
		if f[2] == "concurrent" {
			want = []string{"24", "64", "true", "true", "-"}
		}
		if got := []string{f[4], f[5], f[9], f[10], f[11]}; !slices.Equal(got, want) {
			t.Errorf("leg %s batch %s %s agg=%s: pairs, updates, tables ok, content ok, chain ok = %v, want %v",
				f[0], f[1], f[2], f[3], got, want)
		}
	}
	want := map[string]int{"simnet/switch": 6, "inproc/switch": 6, "tcp/switch": 6, "inproc/controller": 1, "tcp/controller": 1}
	if !maps.Equal(legs, want) {
		t.Errorf("legs per backend/aggregation = %v, want %v\n%s", legs, want, out)
	}
}

// TestRunRendersThenFails: a gating experiment that found something wrong
// is rendered in full and then fails Run.
func TestRunRendersThenFails(t *testing.T) {
	stub := func(Options) (*Result, error) {
		res := &Result{Name: "stub", Tables: []*metrics.Table{metrics.NewTable("stub table", "col")}}
		res.fail("%d INVARIANT VIOLATIONS", 2)
		return res, nil
	}
	var sb strings.Builder
	err := run("stub", stub, Options{}, &sb)
	if err == nil || !strings.Contains(err.Error(), "stub") || !strings.Contains(err.Error(), "2 INVARIANT VIOLATIONS") {
		t.Errorf("run = %v, want an error naming the experiment and its failure", err)
	}
	for _, want := range []string{"== stub table ==", "note: 2 INVARIANT VIOLATIONS"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendering lacks %q:\n%s", want, sb.String())
		}
	}
}

// TestCrosscheckCanary proves the gate can fire: a live leg that ran one
// pair fewer than the reference must mismatch on tables, ledger content
// and ledger chain, each failure must name the leg, and Run must fail.
func TestCrosscheckCanary(t *testing.T) {
	cfg := topology.DefaultFabricConfig()
	cfg.HostsPerRack, cfg.RacksPerPod = 2, 4
	g, err := topology.BuildSinglePod(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := crossPairs(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runCrossLeg(g, pairs, crossLeg{simnetBackend, 1, sequential, aggSwitch}, 7)
	if err != nil {
		t.Fatal(err)
	}
	short, err := runCrossLeg(g, pairs[:2], crossLeg{"inproc", 1, sequential, aggSwitch}, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := crossJudge([]crossOutcome{ref, short})
	if len(res.Failures) != 3 {
		t.Fatalf("failures = %q, want table, content and chain mismatches", res.Failures)
	}
	for i, kind := range []string{"TABLE MISMATCH", "CONTENT MISMATCH", "CHAIN MISMATCH"} {
		if f := res.Failures[i]; !strings.Contains(f, kind) || !strings.Contains(f, short.leg.String()) {
			t.Errorf("failure %d = %q, want a %s naming leg %s", i, f, kind, short.leg)
		}
	}
	var sb strings.Builder
	if err := run("crosscheck", func(Options) (*Result, error) { return res, nil }, Options{}, &sb); err == nil {
		t.Error("run accepted a crosscheck result with mismatches")
	}
	if !strings.Contains(sb.String(), "false") {
		t.Errorf("rendered table shows no failed comparison:\n%s", sb.String())
	}
}
