package experiments

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"cicero/internal/distrib"
	"cicero/internal/metrics"
)

// Distrib runs the multi-process chaos campaigns: one OS process per
// controller and switch (cmd/cicero-node), a fault-free smoke pass and a
// kill -9 pass (SIGKILL a controller and a switch mid-update plus a
// socket-level partition), each gated on the full cross-process
// convergence plane — walk invariants, ledger prefix + content-digest
// agreement, no-forged-rule, the fault-free simnet reference digest, and
// a causally ordered merge of every per-process trace.
func Distrib(o Options) (*Result, error) {
	o = o.Defaulted()
	dir, err := os.MkdirTemp("", "cicero-distrib")
	if err != nil {
		return nil, fmt.Errorf("experiments: distrib workdir: %w", err)
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "cicero-node")
	if out, err := exec.Command("go", "build", "-o", bin, "cicero/cmd/cicero-node").CombinedOutput(); err != nil {
		// No toolchain or no subprocess spawning: report instead of failing
		// the whole experiment sweep.
		return &Result{Name: "distrib", Notes: []string{
			fmt.Sprintf("SKIPPED: cannot build cicero-node (%v: %s)", err, out),
			"run from a checkout with the go toolchain on PATH",
		}}, nil
	}

	runs := []struct {
		name string
		opt  distrib.CampaignOptions
	}{
		{"smoke (no faults)", distrib.CampaignOptions{
			Bin: bin, Flows: 6, Seed: o.Seed, Timeout: 3 * time.Minute,
		}},
		{"kill -9 + partition", distrib.CampaignOptions{
			Bin: bin, Flows: 6, Seed: o.Seed + 1,
			KillController: true, KillSwitch: true, Partition: true,
			Timeout: 4 * time.Minute,
		}},
	}

	tbl := metrics.NewTable("multi-process chaos campaigns (one OS process per controller and switch)",
		"campaign", "flows", "recovered", "ref tables", "ledger agreement", "trace events", "violations")
	out := &Result{Name: "distrib", Tables: []*metrics.Table{tbl}, Notes: []string{
		"faults are real: SIGKILL on live processes, partitions severed at the socket proxies",
		"traces from every process merge into one Lamport-ordered timeline (cmd/cicero-trace)",
	}}
	for i, r := range runs {
		r.opt.Dir = filepath.Join(dir, fmt.Sprintf("campaign-%d", i))
		if err := os.MkdirAll(r.opt.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("experiments: distrib campaign dir: %w", err)
		}
		res, err := distrib.RunCampaign(r.opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: distrib %s: %w", r.name, err)
		}
		tbl.AddRow(r.name,
			fmt.Sprintf("%d/%d", res.FlowsDone, res.FlowsTotal),
			res.Recovered, res.TableMatch, res.DigestAgreement,
			res.TraceEvents, len(res.Violations))
		if len(res.Violations) > 0 {
			out.fail("%s FAILED — first violation: %s", r.name, res.Violations[0])
		}
		if res.ProcsLeaked > 0 {
			out.fail("%s leaked %d node processes", r.name, res.ProcsLeaked)
		}
	}
	if len(out.Failures) == 0 {
		out.Notes = append(out.Notes, "both campaigns clean: convergence, digest agreement, causal traces (expected)")
	}
	return out, nil
}
