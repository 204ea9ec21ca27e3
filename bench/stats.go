package main

import (
	"math"
	"sort"

	"cicero/internal/metrics"
)

// tailSamples is the "ten samples beyond" rule of the metrics guide: a
// percentile is reported only when at least this many samples lie above
// it, so one slow operation cannot set the figure.
const tailSamples = 10

// percentile returns the nearest-rank p-quantile of the values, by the
// repository's own rule (metrics.Samples); 0 for no values.
func percentile(values []float64, p float64) float64 {
	var s metrics.Samples
	for _, v := range values {
		s.Add(v)
	}
	return s.Percentile(p)
}

// supported reports whether n samples leave at least tailSamples beyond
// the p-quantile.
func supported(n int, p float64) bool {
	rank := int(math.Ceil(p * float64(n)))
	return n-rank >= tailSamples
}

// highestSupported returns the largest of the candidate percentiles that
// n samples support (0 when not even the first is).
func highestSupported(n int, candidates []float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if supported(n, p) && p > best {
			best = p
		}
	}
	return best
}

// median returns the middle value (mean of the two middle values for an
// even count), 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
