package experiments

import (
	"fmt"
	"strings"
	"testing"

	"cicero/internal/metrics"
)

// quick returns CI-speed options.
func quick() Options { return Options{Quick: true, Flows: 150, Seed: 7} }

// findTable locates a rendered table by title substring.
func findTable(t *testing.T, res *Result, substr string) *metrics.Table {
	t.Helper()
	for _, tbl := range res.Tables {
		if strings.Contains(tbl.Title, substr) {
			return tbl
		}
	}
	t.Fatalf("result %s has no table matching %q", res.Name, substr)
	return nil
}

// meanSetup extracts the mean fresh-route setup for a framework from the
// setup table (rendered values are strings; re-run via samples instead).
func TestFig11aShape(t *testing.T) {
	res, err := Fig11a(quick())
	if err != nil {
		t.Fatalf("Fig11a: %v", err)
	}
	findTable(t, res, "flow completion")
	setups := setupMeans(t, res)
	// The paper's ordering: centralized < crash < cicero < cicero-agg.
	if !(setups["centralized"] < setups["crash-tolerant"] &&
		setups["crash-tolerant"] < setups["cicero"] &&
		setups["cicero"] < setups["cicero-agg"]) {
		t.Fatalf("setup ordering violated: %v", setups)
	}
}

// setupMeans parses the fresh-route setup table back into numbers.
func setupMeans(t *testing.T, res *Result) map[string]float64 {
	t.Helper()
	tbl := findTable(t, res, "setup delay")
	var sb strings.Builder
	tbl.Render(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	out := make(map[string]float64)
	for _, line := range lines[3:] { // title, header, separator
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		var v float64
		if _, err := sscan(fields[1], &v); err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out
}

// sscan parses one float.
func sscan(s string, v *float64) (int, error) {
	var x float64
	n, err := fmtSscan(s, &x)
	*v = x
	return n, err
}

func TestFig11cUnamortizedOverhead(t *testing.T) {
	res, err := Fig11c(quick())
	if err != nil {
		t.Fatalf("Fig11c: %v", err)
	}
	setups := setupMeans(t, res)
	// Unamortized: every flow pays setup, so cicero must exceed
	// centralized by a visible factor (paper: 16%+ of a ~34ms flow; in
	// setup terms several ms).
	if setups["cicero"] <= setups["centralized"] {
		t.Fatalf("cicero setup %v not above centralized %v", setups["cicero"], setups["centralized"])
	}
}

func TestFig11dCPUOrdering(t *testing.T) {
	res, err := Fig11d(quick())
	if err != nil {
		t.Fatalf("Fig11d: %v", err)
	}
	tbl := findTable(t, res, "CPU utilization")
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	meanLine := lines[len(lines)-1]
	fields := strings.Fields(meanLine)
	if len(fields) != 5 || fields[0] != "mean" {
		t.Fatalf("unexpected mean row: %q", meanLine)
	}
	vals := make([]float64, 4)
	for i := 0; i < 4; i++ {
		if _, err := sscan(fields[i+1], &vals[i]); err != nil {
			t.Fatalf("parse %q: %v", fields[i+1], err)
		}
	}
	centralized, crash, cicero, ciceroAgg := vals[0], vals[1], vals[2], vals[3]
	if !(cicero > crash && crash >= centralized) {
		t.Fatalf("CPU ordering violated: centralized=%.2f crash=%.2f cicero=%.2f", centralized, crash, cicero)
	}
	// Controller aggregation must reduce switch CPU versus switch
	// aggregation (the paper reports roughly halving).
	if ciceroAgg >= cicero {
		t.Fatalf("controller aggregation did not reduce switch CPU: %.2f vs %.2f", ciceroAgg, cicero)
	}
}

func TestFig12aGrowsWithControlPlane(t *testing.T) {
	res, err := Fig12a(quick())
	if err != nil {
		t.Fatalf("Fig12a: %v", err)
	}
	tbl := findTable(t, res, "update time")
	var sb strings.Builder
	tbl.Render(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// Parse cicero column (4th) for sizes 4 and 10.
	var at4, at10 float64
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) != 5 {
			continue
		}
		switch fields[0] {
		case "4":
			at4 = parseMs(t, fields[3])
		case "10":
			at10 = parseMs(t, fields[3])
		}
	}
	if at4 == 0 || at10 == 0 {
		t.Fatalf("missing rows: %s", sb.String())
	}
	if at10 <= at4 {
		t.Fatalf("update time should grow with control plane size: n=4 %.2f, n=10 %.2f", at4, at10)
	}
}

// parseMs parses a "1.234ms" cell.
func parseMs(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "ms")
	var v float64
	if _, err := sscan(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFig12bLocalityDecreases(t *testing.T) {
	res, err := Fig12b(quick())
	if err != nil {
		t.Fatalf("Fig12b: %v", err)
	}
	tbl := findTable(t, res, "events handled")
	var sb strings.Builder
	tbl.Render(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	var hadoop1, hadoop10, web10 float64
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) != 4 {
			continue
		}
		switch fields[0] {
		case "1":
			if _, err := sscan(fields[2], &hadoop1); err != nil {
				t.Fatal(err)
			}
		case "10":
			if _, err := sscan(fields[2], &hadoop10); err != nil {
				t.Fatal(err)
			}
			if _, err := sscan(fields[3], &web10); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hadoop1 != 100 {
		t.Fatalf("single domain should handle 100%%, got %.1f", hadoop1)
	}
	if hadoop10 >= 30 {
		t.Fatalf("hadoop per-domain share at 10 domains = %.1f%%, expected sharp drop", hadoop10)
	}
	// Web's higher multi-domain fraction keeps its share above hadoop's.
	if web10 <= hadoop10 {
		t.Fatalf("web share (%.1f) should exceed hadoop share (%.1f)", web10, hadoop10)
	}
}

func TestFig12cMultiDomainWins(t *testing.T) {
	res, err := Fig12c(quick())
	if err != nil {
		t.Fatalf("Fig12c: %v", err)
	}
	tbl := findTable(t, res, "single vs multi-domain")
	var sb strings.Builder
	tbl.Render(&sb)
	// Mean row: multi-domain cicero should beat the 12-member single
	// domain.
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	meanLine := lines[len(lines)-1]
	fields := strings.Fields(meanLine)
	// columns: label, cicero-1dom, cicero-agg-1dom, cicero-MD, cicero-agg-MD
	if len(fields) < 5 {
		t.Fatalf("unexpected mean row %q", meanLine)
	}
	var single, multi float64
	if _, err := sscan(fields[len(fields)-4], &single); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(fields[len(fields)-2], &multi); err != nil {
		t.Fatal(err)
	}
	if multi >= single {
		t.Fatalf("multi-domain mean %.3f not below single-domain %.3f", multi, single)
	}
}

func TestFig12dCiceroBeatsCentralizedAcrossDCs(t *testing.T) {
	res, err := Fig12d(quick())
	if err != nil {
		t.Fatalf("Fig12d: %v", err)
	}
	tbl := findTable(t, res, "data centers")
	var sb strings.Builder
	tbl.Render(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	meanLine := lines[len(lines)-1]
	fields := strings.Fields(meanLine)
	if len(fields) != 4 {
		t.Fatalf("unexpected mean row %q", meanLine)
	}
	var centralized, ciceroMD float64
	if _, err := sscan(fields[1], &centralized); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(fields[2], &ciceroMD); err != nil {
		t.Fatal(err)
	}
	if ciceroMD >= centralized {
		t.Fatalf("cicero MD mean %.3f should beat centralized %.3f in multi-DC", ciceroMD, centralized)
	}
}

func TestTable1SchedulerEliminatesWindows(t *testing.T) {
	res, err := Table1(quick())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	if strings.Contains(out, "UNEXPECTED") {
		t.Fatalf("reverse-path scheduler produced violations:\n%s", out)
	}
	// The immediate scheduler must show at least one violation.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "immediate") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[3] == "0" {
				t.Fatalf("negative control shows zero violations:\n%s", out)
			}
		}
	}
}

func TestAblationsOrdering(t *testing.T) {
	res, err := Ablations(quick())
	if err != nil {
		t.Fatalf("Ablations: %v", err)
	}
	tbl := findTable(t, res, "ablations")
	var sb strings.Builder
	tbl.Render(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	update := make(map[string]float64)
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		for _, key := range []string{"cicero", "-", "+"} {
			if strings.HasPrefix(fields[0], key) {
				// The update-time cell is the first one ending in "ms".
				for _, f := range fields[1:] {
					if strings.HasSuffix(f, "ms") {
						update[line[:20]] = parseMs(t, f)
						break
					}
				}
				break
			}
		}
	}
	var baseline, central float64
	for k, v := range update {
		if strings.HasPrefix(k, "cicero (baseline") {
			baseline = v
		}
		if strings.HasPrefix(k, "- replication") {
			central = v
		}
	}
	if baseline == 0 || central == 0 {
		t.Fatalf("missing rows: %v", update)
	}
	if baseline <= central {
		t.Fatalf("baseline cicero (%v) should cost more than centralized (%v)", baseline, central)
	}
}

func TestTable2Renders(t *testing.T) {
	res, err := Table2(Options{})
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Cicero (this repo)", "MORPH", "RoSCo", "Dionysus"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing row %q", want)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	var sb strings.Builder
	if err := Run("table2", Options{}, &sb); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(sb.String(), "table2") {
		t.Error("Run produced no output")
	}
	if err := Run("nope", Options{}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(Names()) != 16 {
		t.Errorf("Names() = %v, want 16 experiments", Names())
	}
}

// fmtSscan wraps fmt.Sscan to keep the parsing helper tiny.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
