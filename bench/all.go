package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// workloadResult is one workload's two passes.
type workloadResult struct {
	Name     string `json:"name"`
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// resultSet is what one full run of the benchmark writes and -compare
// reads.
type resultSet struct {
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

// runChild runs one pass of one workload in a fresh OS process, so that
// peak RSS and allocation counts belong to that workload alone. It echoes
// the child's report and returns the result object of its last line.
func runChild(o options, name string, trace int, out io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self,
		"-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(trace),
		"-out", o.outDir)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): last line is not a result: %w", name, trace, err)
	}
	return r, nil
}

// runAll runs every workload, both passes, o.repeat times, and writes one
// result set per repetition.
func runAll(o options, out io.Writer) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	for rep := 1; rep <= o.repeat; rep++ {
		set := resultSet{Seed: o.seed, Seconds: o.seconds}
		for _, w := range workloads {
			e2e, err := runChild(o, w.Name, 0, out)
			if err != nil {
				return err
			}
			layers, err := runChild(o, w.Name, 1, out)
			if err != nil {
				return err
			}
			set.Workloads = append(set.Workloads, workloadResult{Name: w.Name, EndToEnd: e2e, PerLayer: layers})
		}
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(o.outDir, fmt.Sprintf("results-%d.json", rep))
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		set.printTable(out)
		fmt.Fprintf(out, "result set %d of %d: %s\n", rep, o.repeat, path)
	}
	return nil
}

// printTable prints the end-to-end metrics, one row per workload.
func (s resultSet) printTable(out io.Writer) {
	fmt.Fprintf(out, "\n%-16s", "workload")
	for _, d := range endToEnd {
		fmt.Fprintf(out, " %22s", d.Name+" ["+d.Unit+"]")
	}
	fmt.Fprintln(out)
	for _, w := range s.Workloads {
		fmt.Fprintf(out, "%-16s", w.Name)
		for _, d := range endToEnd {
			fmt.Fprintf(out, " %22.3f", w.EndToEnd.Metrics[d.Name].Value)
		}
		fmt.Fprintln(out)
	}
}
