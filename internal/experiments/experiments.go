// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): flow-completion CDFs for the Hadoop and web-server
// workloads under four frameworks (Fig. 11a-c), switch CPU utilization
// (Fig. 11d), update time versus control-plane size (Fig. 12a), event
// locality across domains (Fig. 12b), single- versus multi-domain flow
// completion (Fig. 12c), the multi-data-center deployment (Fig. 12d), the
// consistency scenarios of Table 1, and the feature matrix of Table 2.
//
// Absolute times come from the calibrated cost model
// (internal/protocol.Calibrated); the claims under reproduction are the
// relative shapes — who wins, by what factor, where crossovers fall.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/metrics"
	"cicero/internal/protocol"
	"cicero/internal/workload"
)

// Options tunes experiment scale.
type Options struct {
	// Flows per run (paper: 5000).
	Flows int
	// Seed drives all randomness.
	Seed int64
	// Quick shrinks topologies and flow counts for CI-speed runs.
	Quick bool
	// CryptoReal executes real signatures (slow; default is simulated
	// time from the cost model with identical protocol structure).
	CryptoReal bool
}

// Defaulted applies defaults.
func (o Options) Defaulted() Options {
	if o.Flows == 0 {
		if o.Quick {
			o.Flows = 400
		} else {
			o.Flows = 5000
		}
	}
	if o.Seed == 0 {
		o.Seed = 2020
	}
	return o
}

// Result is an experiment's rendered output.
type Result struct {
	Name   string
	Tables []*metrics.Table
	Notes  []string
	// Failures lists what a gating experiment found wrong: invariant
	// violations, digest mismatches, a canary that never fired. Run renders
	// the result first and then returns them as an error.
	Failures []string
}

// fail records a gate failure, also as a note so the rendering shows it.
func (r *Result) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.Notes = append(r.Notes, msg)
	r.Failures = append(r.Failures, msg)
}

// Render writes the result to w.
func (r *Result) Render(w io.Writer) {
	for _, tbl := range r.Tables {
		tbl.Render(w)
		fmt.Fprintln(w)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", note)
	}
}

// Runner regenerates one paper artifact.
type Runner func(Options) (*Result, error)

// Registry maps experiment ids to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig11a":     Fig11a,
		"fig11b":     Fig11b,
		"fig11c":     Fig11c,
		"fig11d":     Fig11d,
		"fig12a":     Fig12a,
		"fig12b":     Fig12b,
		"fig12c":     Fig12c,
		"fig12d":     Fig12d,
		"table1":     Table1,
		"table2":     Table2,
		"ablations":  Ablations,
		"chaos":      ChaosCampaign,
		"synthesis":  Synthesis,
		"distrib":    Distrib,
		"tuf":        Tuf,
		"crosscheck": Crosscheck,
	}
}

// Names returns the registered experiment ids in order.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run executes one experiment by id and renders it to w. An experiment
// whose gate failed is rendered in full and then reported as an error.
func Run(name string, opt Options, w io.Writer) error {
	runner, ok := Registry()[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return run(name, runner, opt, w)
}

func run(name string, runner Runner, opt Options, w io.Writer) error {
	res, err := runner(opt)
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", name, err)
	}
	res.Render(w)
	if len(res.Failures) > 0 {
		return fmt.Errorf("experiments: %s: %d gate failures: %s", name, len(res.Failures), strings.Join(res.Failures, "; "))
	}
	return nil
}

// framework is one compared system configuration.
type framework struct {
	name  string
	proto controlplane.Protocol
	agg   controlplane.Aggregation
	ctls  int
}

// paperFrameworks returns the §6.2 comparison set with n controllers for
// the replicated frameworks.
func paperFrameworks(n int) []framework {
	return []framework{
		{"centralized", controlplane.ProtoCentralized, 0, 1},
		{"crash-tolerant", controlplane.ProtoCrash, 0, n},
		{"cicero", controlplane.ProtoCicero, controlplane.AggSwitch, n},
		{"cicero-agg", controlplane.ProtoCicero, controlplane.AggController, n},
	}
}

// cdfTable renders per-framework completion CDFs side by side at the
// paper's probability levels.
func cdfTable(title string, series map[string]*metrics.Samples, order []string) *metrics.Table {
	headers := []string{"CDF"}
	headers = append(headers, order...)
	tbl := metrics.NewTable(title, headers...)
	levels := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00}
	for _, p := range levels {
		row := make([]any, 0, len(order)+1)
		row = append(row, fmt.Sprintf("p%02.0f(ms)", p*100))
		for _, name := range order {
			row = append(row, series[name].Percentile(p))
		}
		tbl.AddRow(row...)
	}
	meanRow := make([]any, 0, len(order)+1)
	meanRow = append(meanRow, "mean(ms)")
	for _, name := range order {
		meanRow = append(meanRow, series[name].Mean())
	}
	tbl.AddRow(meanRow...)
	return tbl
}

// runWorkloadCompletion runs one framework over a workload on a graph
// builder and returns the completion-time samples (ms) plus per-flow
// setup samples.
func runWorkloadCompletion(
	cfg core.Config,
	flows []workload.Flow,
	opts core.RunOptions,
) (*metrics.Samples, *metrics.Samples, *core.Network, error) {
	n, err := core.Build(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	results, err := n.RunFlows(flows, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	var completion, setup metrics.Samples
	for _, r := range results {
		completion.AddDuration(r.Completion)
		setup.AddDuration(r.SetupDelay)
	}
	return &completion, &setup, n, nil
}

// meanInterarrival is the Poisson gap used by the flow-completion runs:
// the paper's 5000 flows span a ~30 s workload window.
func meanInterarrival(opt Options) time.Duration {
	if opt.Quick {
		return 2 * time.Millisecond
	}
	return 6 * time.Millisecond
}

// note formats a standard paper-expectation annotation.
func note(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// charge helper for reading protocol cost defaults in notes.
var calibrated = protocol.Calibrated()
