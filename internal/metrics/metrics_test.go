package metrics

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSamplesStatistics(t *testing.T) {
	var s Samples
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := s.Max(); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	if got := s.Percentile(0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
}

func TestSamplesEmpty(t *testing.T) {
	var s Samples
	if s.Mean() != 0 || s.Percentile(0.5) != 0 || s.Max() != 0 {
		t.Error("empty samples should yield zeros")
	}
}

func TestAddDuration(t *testing.T) {
	var s Samples
	s.AddDuration(2500 * time.Microsecond)
	if got := s.Mean(); got != 2.5 {
		t.Errorf("AddDuration stored %v ms, want 2.5", got)
	}
}

// TestCDFMonotone: the percentiles an empirical CDF is drawn from never
// decrease with the probability level, and the last is the largest sample.
func TestCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var s Samples
		for _, v := range raw {
			s.Add(v)
		}
		for i := 1; i <= 20; i++ {
			if s.Percentile(float64(i)/20) < s.Percentile(float64(i-1)/20) {
				return false
			}
		}
		return len(raw) == 0 || s.Percentile(1) == slices.Max(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileBounds(t *testing.T) {
	var s Samples
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(-0.5); got != 1 {
		t.Errorf("p<0 = %v, want min", got)
	}
	if got := s.Percentile(1.5); got != 100 {
		t.Errorf("p>1 = %v, want max", got)
	}
	if got := s.Percentile(0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("fig-x", "framework", "mean(ms)")
	tbl.AddRow("centralized", 2.9)
	tbl.AddRow("cicero", 8.312)
	tbl.AddRow("latency", 1500*time.Microsecond)
	var b strings.Builder
	tbl.Render(&b)
	out := b.String()
	for _, want := range []string{"== fig-x ==", "framework", "centralized", "8.312", "1.500ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryFormat(t *testing.T) {
	var s Samples
	s.Add(1)
	s.Add(2)
	got := s.Summary()
	if !strings.Contains(got, "n=2") || !strings.Contains(got, "mean=1.50") {
		t.Errorf("Summary = %q", got)
	}
}
