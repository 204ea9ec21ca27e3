package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestCompareAppliesBounds(t *testing.T) {
	spec := benchmarkSpec{EndToEnd: []boundedMetric{
		{Name: "install_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "updates_per_sec", Unit: "1/s", Better: "higher", Bound: 0.07},
	}}
	set := func(p50, ups float64, failed int) resultSet {
		return resultSet{Workloads: []workloadResult{{
			Name: "load-inproc-b32",
			EndToEnd: result{Correct: true, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{
				"install_p50_ms":  {Value: p50, Unit: "ms"},
				"updates_per_sec": {Value: ups, Unit: "1/s"},
			}},
		}}}
	}
	base := set(70, 1000, 0)
	for _, c := range []struct {
		name string
		b    resultSet
		ok   bool
	}{
		{"within both bounds", set(76.9, 931, 0), true},
		{"better on both", set(50, 2000, 0), true},
		{"latency over its bound", set(77.1, 1000, 0), false},
		{"throughput under its bound", set(70, 929, 0), false},
		{"more failures", set(70, 1000, 1), false},
	} {
		var out bytes.Buffer
		err := compareSets(spec, base, c.b, &out)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v\n%s", c.name, err, c.ok, out.String())
		}
		if !strings.Contains(out.String(), "load-inproc-b32") || !strings.Contains(out.String(), "(base a)") {
			t.Errorf("%s: report lacks the workload row or the ratio's base:\n%s", c.name, out.String())
		}
	}
	if err := compareSets(spec, base, resultSet{}, &bytes.Buffer{}); err == nil {
		t.Error("a result set without the workload compared clean")
	}
}
