package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestResultGolden(t *testing.T) {
	r := result{
		Correct:   true,
		Attempted: 640,
		Failed:    0,
		Metrics: map[string]metricValue{
			"install_p50_ms":  {Value: 14.25, Unit: "ms"},
			"updates_per_sec": {Value: 1115.6647, Unit: "1/s"},
			"setup_s":         {Value: 0.369, Unit: "s"},
		},
	}
	var buf bytes.Buffer
	if err := r.print(&buf, endToEnd); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "result.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("result output changed:\n got: %q\nwant: %q", buf.String(), want)
	}
	// The contract: the last line is one JSON object with exactly these keys.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := obj[key]; !ok {
			t.Errorf("result object lacks %q", key)
		}
	}
	if len(obj) != 4 {
		t.Errorf("result object has %d keys, want 4", len(obj))
	}
}

// TestSpecMatchesTables keeps BENCHMARK.json and the metric and workload
// tables of this package in step.
func TestSpecMatchesTables(t *testing.T) {
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []boundedMetric `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the package %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the package %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := spec.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the package %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the package %d (limit 128)", len(spec.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, d := range perLayer {
		m := spec.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the package %+v", i, m, d)
		}
		if seen[d.Name] {
			t.Errorf("per-layer metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}
