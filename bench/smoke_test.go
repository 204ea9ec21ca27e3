package main

import "testing"

// TestSmoke runs one small batched round through the real stack and every
// correctness gate, traced, and checks the trace accounts for it.
func TestSmoke(t *testing.T) {
	g, err := benchTopology()
	if err != nil {
		t.Fatal(err)
	}
	w := workload{Name: "smoke", Backend: "inproc", Clients: 2, BatchSize: 8, Cycles: 3}
	ops, err := makeOps(usablePairs(g), w.Clients, 2020, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runRound(roundSpec{w: w, graph: g, ops: ops, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := ops.expectedUpdates(warmupCycles, warmupCycles+w.Cycles); r.used.applied != want {
		t.Errorf("applied %d updates, want %d", r.used.applied, want)
	}
	if n := len(r.phase.installMs); n != w.Clients*w.Cycles || len(r.phase.teardownMs) != n {
		t.Errorf("timed %d installs and %d teardowns, want %d each", n, len(r.phase.teardownMs), w.Clients*w.Cycles)
	}
	if r.phase.failed != 0 || r.phase.attempted != 2*w.Clients*w.Cycles {
		t.Errorf("attempted %d, failed %d", r.phase.attempted, r.phase.failed)
	}
	stats := newLayerStats()
	if err := stats.add(r); err != nil {
		t.Fatal(err)
	}
	m := stats.metrics()
	if m["fabric.msgs_per_update"] <= 0 || m["controlplane.busy_ms_per_update"] <= 0 || m["dataplane.busy_ms_per_update"] <= 0 {
		t.Errorf("trace accounted no work: %v", m)
	}
	if r.spans.sample(kindBatchUpdate) == nil || r.spans.sample(kindBFTPrePrepare) == nil {
		t.Error("trace kept no sample of the batched path's messages")
	}
}
