package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// metricDef names one metric of the benchmark's contract. The same table
// is spelled out in BENCHMARK.json (a test keeps the two in step); the
// regression bounds live only there.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system would see, measured with
// tracing off and reported under the same names on every workload.
var endToEnd = []metricDef{
	{"install_p50_ms", "ms", "lower"},
	{"install_p95_ms", "ms", "lower"},
	{"teardown_p50_ms", "ms", "lower"},
	{"teardown_p95_ms", "ms", "lower"},
	{"updates_per_sec", "1/s", "higher"},
	{"cpu_ms_per_update", "ms", "lower"},
	{"wire_bytes_per_update", "B", "lower"},
	{"allocs_per_update", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the metrics by name with their units, in the order of
// defs, then the result object on the last line.
func (r result) print(out io.Writer, defs []metricDef) error {
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(out, "%-40s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// totals pools the rounds of one run.
type totals struct {
	// windows are the measured phases cut every windowLen, all rounds.
	windows []window
	busy    time.Duration
	used    resources
	// setups are the rounds' set-up times in seconds on the nominal host.
	setups []float64
	// firstRSSMB is the first round's peak resident set: what a fresh
	// process needs for a fixed amount of work. Later rounds add what the
	// collector has not yet given back, which differs by a fifth between
	// runs of the same code.
	firstRSSMB float64
	// attempted and failed count the measured phases' operations.
	attempted int
	failed    int
	rounds    int
}

func (t *totals) add(r roundResult) {
	t.windows = append(t.windows, r.windows...)
	t.busy += r.phase.busy
	t.used = t.used.plus(r.used)
	t.setups = append(t.setups, r.setup.Seconds()/r.setupPace)
	if t.rounds == 0 {
		t.firstRSSMB = r.peakRSSMB
	}
	t.attempted += r.phase.attempted
	t.failed += r.phase.failed
	t.rounds++
}

// updatesPerSec is switch-applied updates per second of load on the
// nominal host.
func (t *totals) updatesPerSec() float64 { return pool(t.windows).rate() }

// hostPace is the median pace of the run's windows.
func (t *totals) hostPace() float64 {
	paces := make([]float64, len(t.windows))
	for i, w := range t.windows {
		paces[i] = w.pace
	}
	return median(paces)
}

// endToEndMetrics turns the pooled rounds into the contract's metrics:
// times on the nominal host (reference.go), counts per update as counted.
func (t *totals) endToEndMetrics() map[string]metricValue {
	p := pool(t.windows)
	per := func(v, updates uint64) float64 {
		if updates == 0 {
			return 0
		}
		return float64(v) / float64(updates)
	}
	values := map[string]float64{
		"install_p50_ms":        percentile(p.installMs, 0.50),
		"install_p95_ms":        percentile(p.installMs, 0.95),
		"teardown_p50_ms":       percentile(p.teardownMs, 0.50),
		"teardown_p95_ms":       percentile(p.teardownMs, 0.95),
		"updates_per_sec":       p.rate(),
		"cpu_ms_per_update":     p.cpuMsPerUpdate(),
		"wire_bytes_per_update": per(t.used.bytes, t.used.applied),
		"allocs_per_update":     per(t.used.mallocs, t.used.applied),
		"peak_rss_mb":           t.firstRSSMB,
		"setup_s":               median(t.setups),
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// runOne runs one workload in this process and prints its result.
func runOne(o options, out io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.cycles > 0 {
		w.Cycles = o.cycles
	}
	g, err := benchTopology()
	if err != nil {
		return err
	}
	pairs := usablePairs(g)
	fmt.Fprintf(out, "workload %s: %s, %d clients, batch %d, %d+%d cycles/client/round, seed %d, no injected delay\n",
		w.Name, w.Backend, w.Clients, w.BatchSize, warmupCycles, w.Cycles, o.seed)
	if o.trace == 1 {
		return runTraced(o, w, g, pairs, out)
	}

	host, err := startHostReader()
	if err != nil {
		return err
	}
	defer host.stop()
	var t totals
	began := time.Now()
	var longest time.Duration
	for round := 0; ; round++ {
		roundBegan := time.Now()
		ops, err := makeOps(pairs, w.Clients, o.seed, round)
		if err != nil {
			return err
		}
		r, err := runRound(roundSpec{w: w, graph: g, ops: ops, host: host})
		if err != nil {
			return fmt.Errorf("%s round %d: %w", w.Name, round, err)
		}
		t.add(r)
		fmt.Fprintf(out, "round %d: %d updates in %.3f s, setup %.3f s at pace %.2f, %d BFT slots, %.0f MB resident\n",
			round, r.used.applied, r.phase.busy.Seconds(), r.setup.Seconds(), r.setupPace, r.slots, r.peakRSSMB)
		if d := time.Since(roundBegan); d > longest {
			longest = d
		}
		if o.enough(t.rounds, time.Since(began), longest) {
			break
		}
	}
	if o.windowsOut != "" {
		if err := writeWindows(o.windowsOut, t.windows); err != nil {
			return err
		}
	}
	p := pool(t.windows)
	fmt.Fprintf(out, "%d rounds, %d windows of %v; as measured: %.1f updates/s, %.3f CPU-ms/update, reference kernel %.0f us\n",
		t.rounds, len(t.windows), windowLen, float64(t.used.applied)/t.busy.Seconds(),
		float64(t.used.cpu)/float64(time.Millisecond)/float64(t.used.applied),
		t.hostPace()*float64(referenceNominal)/float64(time.Microsecond))
	fmt.Fprintf(out, "times below are for a host that runs the reference kernel in %v (this one was %.2f times slower)\n",
		referenceNominal, t.hostPace())
	for _, s := range []struct {
		name string
		ms   []float64
	}{{"install", p.installMs}, {"teardown", p.teardownMs}} {
		top := highestSupported(len(s.ms), []float64{0.90, 0.95, 0.99})
		fmt.Fprintf(out, "%s: n=%d, highest percentile with %d samples beyond it: p%.0f = %.3f ms (p99 %.3f ms, not gated)\n",
			s.name, len(s.ms), tailSamples, top*100, percentile(s.ms, top), percentile(s.ms, 0.99))
	}
	res := result{Correct: true, Attempted: t.attempted, Failed: t.failed, Metrics: t.endToEndMetrics()}
	return res.print(out, endToEnd)
}
