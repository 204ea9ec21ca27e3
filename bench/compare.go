package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// boundedMetric is one end-to-end entry of BENCHMARK.json.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json that -compare needs.
type benchmarkSpec struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles loads the spec and two result sets and compares them.
func compareFiles(specPath, aPath, bPath string, out io.Writer) error {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	var a, b resultSet
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	return compareSets(spec, a, b, out)
}

// worsening is how much b is worse than a as a share of a (negative when
// b is better).
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, for every workload and end-to-end metric, both
// values and b's ratio to its base a, and returns an error if b is worse
// than a by more than the metric's bound anywhere, or fails a larger
// share of its operations.
func compareSets(spec benchmarkSpec, a, b resultSet, out io.Writer) error {
	byName := make(map[string]workloadResult)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	regressions := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return fmt.Errorf("workload %s is missing from the second result set", wa.Name)
		}
		for _, m := range spec.EndToEnd {
			va, oka := wa.EndToEnd.Metrics[m.Name]
			vb, okb := wb.EndToEnd.Metrics[m.Name]
			if !oka || !okb {
				return fmt.Errorf("workload %s: metric %s is missing from a result set", wa.Name, m.Name)
			}
			verdict := "ok"
			if worsening(m.Better, va.Value, vb.Value) > m.Bound {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(out, "%-16s %-22s a=%12.4f b=%12.4f %-5s b/a=%.4f (base a) %s is better, bound %.0f%%: %s\n",
				wa.Name, m.Name, va.Value, vb.Value, m.Unit, ratio(vb.Value, va.Value), m.Better, m.Bound*100, verdict)
		}
		fa, fb := failedShare(wa.EndToEnd), failedShare(wb.EndToEnd)
		verdict := "ok"
		if fb > fa {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(out, "%-16s %-22s a=%12.6f b=%12.6f (failed of %d and %d attempted) any increase fails: %s\n",
			wa.Name, "failed_share", fa, fb, wa.EndToEnd.Attempted, wb.EndToEnd.Attempted, verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions beyond the bounds", regressions)
	}
	return nil
}

func ratio(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}

func failedShare(r result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
