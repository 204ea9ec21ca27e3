package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{200, 0.95, true},  // rank 190, ten beyond
		{199, 0.95, false}, // rank 190, nine beyond
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.50, true},
		{19, 0.50, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	candidates := []float64{0.90, 0.95, 0.99}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {100, 0.90}, {300, 0.95}, {1200, 0.99}} {
		if got := highestSupported(c.n, candidates); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
