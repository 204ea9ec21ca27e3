package core

import (
	"testing"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/protocol"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

// smallPod builds a 4-rack pod for fast tests.
func smallPod(t *testing.T) *topology.Graph {
	t.Helper()
	cfg := topology.DefaultFabricConfig()
	cfg.RacksPerPod = 4
	cfg.HostsPerRack = 2
	g, err := topology.BuildSinglePod(cfg)
	if err != nil {
		t.Fatalf("BuildSinglePod: %v", err)
	}
	return g
}

// testFlows produces a deterministic trace.
func testFlows(t *testing.T, g *topology.Graph, count int) []workload.Flow {
	t.Helper()
	flows, err := workload.Generate(g, workload.Config{
		Mix:              workload.HadoopMix(),
		Flows:            count,
		MeanInterarrival: 2 * time.Millisecond,
		Seed:             42,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return flows
}

func buildNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

func TestCentralizedEndToEnd(t *testing.T) {
	g := smallPod(t)
	n := buildNet(t, Config{
		Graph:    g,
		Protocol: controlplane.ProtoCentralized,
		Cost:     protocol.Calibrated(),
		Seed:     1,
	})
	results, err := n.RunFlows(testFlows(t, g, 30), RunOptions{})
	if err != nil {
		t.Fatalf("RunFlows: %v", err)
	}
	if len(results) != 30 {
		t.Fatalf("completed %d flows, want 30", len(results))
	}
	for _, r := range results {
		if r.Completion < 0 {
			t.Fatalf("negative completion for flow %d", r.Flow.ID)
		}
	}
}

func TestCrashTolerantEndToEnd(t *testing.T) {
	g := smallPod(t)
	n := buildNet(t, Config{
		Graph:                g,
		Protocol:             controlplane.ProtoCrash,
		ControllersPerDomain: 3,
		Cost:                 protocol.Calibrated(),
		Seed:                 1,
	})
	results, err := n.RunFlows(testFlows(t, g, 30), RunOptions{})
	if err != nil {
		t.Fatalf("RunFlows: %v", err)
	}
	if len(results) != 30 {
		t.Fatalf("completed %d flows, want 30", len(results))
	}
}

func TestCiceroEndToEnd(t *testing.T) {
	g := smallPod(t)
	n := buildNet(t, Config{
		Graph:    g,
		Protocol: controlplane.ProtoCicero,
		Cost:     protocol.Calibrated(),
		Seed:     1,
	})
	results, err := n.RunFlows(testFlows(t, g, 30), RunOptions{})
	if err != nil {
		t.Fatalf("RunFlows: %v", err)
	}
	if len(results) != 30 {
		t.Fatalf("completed %d flows, want 30", len(results))
	}
	// Every switch that applied updates should have done so exactly once
	// per update (no duplicate application).
	applied := 0
	for _, sw := range n.Switches {
		applied += int(sw.UpdatesApplied)
		if sw.UpdatesRejected != 0 {
			t.Errorf("switch %s rejected %d updates in an honest run", sw.ID(), sw.UpdatesRejected)
		}
	}
	if applied == 0 {
		t.Fatal("no updates applied")
	}
}

func TestCiceroAggregationEndToEnd(t *testing.T) {
	g := smallPod(t)
	n := buildNet(t, Config{
		Graph:       g,
		Protocol:    controlplane.ProtoCicero,
		Aggregation: controlplane.AggController,
		Cost:        protocol.Calibrated(),
		Seed:        1,
	})
	results, err := n.RunFlows(testFlows(t, g, 30), RunOptions{})
	if err != nil {
		t.Fatalf("RunFlows: %v", err)
	}
	if len(results) != 30 {
		t.Fatalf("completed %d flows, want 30", len(results))
	}
}

// TestSetupCostOrdering checks the paper's headline relation on fresh-rule
// setup latency: centralized < crash-tolerant < cicero < cicero-agg.
func TestSetupCostOrdering(t *testing.T) {
	g := smallPod(t)
	setup := func(proto controlplane.Protocol, agg controlplane.Aggregation) time.Duration {
		cfg := Config{Graph: g, Protocol: proto, Aggregation: agg,
			Cost: protocol.Calibrated(), Seed: 7}
		n := buildNet(t, cfg)
		d, err := n.MeasureUpdateTime(topology.HostName(0, 0, 0, 0), topology.HostName(0, 0, 3, 0))
		if err != nil {
			t.Fatalf("MeasureUpdateTime(%v): %v", proto, err)
		}
		return d
	}
	central := setup(controlplane.ProtoCentralized, 0)
	crash := setup(controlplane.ProtoCrash, 0)
	cicero := setup(controlplane.ProtoCicero, controlplane.AggSwitch)
	ciceroAgg := setup(controlplane.ProtoCicero, controlplane.AggController)
	t.Logf("setup: centralized=%v crash=%v cicero=%v cicero-agg=%v", central, crash, cicero, ciceroAgg)
	if !(central < crash && crash < cicero && cicero < ciceroAgg) {
		t.Fatalf("ordering violated: centralized=%v crash=%v cicero=%v cicero-agg=%v",
			central, crash, cicero, ciceroAgg)
	}
}

func TestRuleReuseAmortizesSetup(t *testing.T) {
	g := smallPod(t)
	n := buildNet(t, Config{
		Graph:    g,
		Protocol: controlplane.ProtoCicero,
		Cost:     protocol.Calibrated(),
		Seed:     3,
	})
	flows := testFlows(t, g, 60)
	results, err := n.RunFlows(flows, RunOptions{})
	if err != nil {
		t.Fatalf("RunFlows: %v", err)
	}
	reused := 0
	for _, r := range results {
		if r.RuleReused {
			reused++
			if r.SetupDelay != 0 {
				t.Errorf("reused flow %d has setup delay %v", r.Flow.ID, r.SetupDelay)
			}
		}
	}
	if reused == 0 {
		t.Fatal("no flows reused rules; reuse amortization broken")
	}
}

func TestTeardownModePreventsReuse(t *testing.T) {
	g := smallPod(t)
	n := buildNet(t, Config{
		Graph:     g,
		Protocol:  controlplane.ProtoCicero,
		PairRules: true,
		Cost:      protocol.Calibrated(),
		Seed:      3,
	})
	// Sequential flows between the same pair, far apart in time: with
	// teardown, the second must pay setup again.
	src := topology.HostName(0, 0, 0, 0)
	dst := topology.HostName(0, 0, 2, 0)
	flows := []workload.Flow{
		{ID: 1, Src: src, Dst: dst, SizeKB: 100, Start: 0},
		{ID: 2, Src: src, Dst: dst, SizeKB: 100, Start: 500 * time.Millisecond},
	}
	results, err := n.RunFlows(flows, RunOptions{Teardown: true})
	if err != nil {
		t.Fatalf("RunFlows: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("completed %d, want 2", len(results))
	}
	for _, r := range results {
		if r.RuleReused {
			t.Errorf("flow %d reused rules despite teardown", r.Flow.ID)
		}
		if r.SetupDelay == 0 {
			t.Errorf("flow %d has zero setup in teardown mode", r.Flow.ID)
		}
	}
}

func TestMultiDomainEndToEnd(t *testing.T) {
	cfg := topology.InterconnectPodsConfig{
		Fabric: topology.DefaultFabricConfig(),
		Pods:   2,
	}
	cfg.Fabric.RacksPerPod = 3
	cfg.Fabric.HostsPerRack = 1
	g, err := topology.BuildInterconnectedPods(cfg)
	if err != nil {
		t.Fatalf("BuildInterconnectedPods: %v", err)
	}
	n := buildNet(t, Config{
		Graph:      g,
		Protocol:   controlplane.ProtoCicero,
		NumDomains: 3,
		DomainOf:   ByPod(2, 2),
		Cost:       protocol.Calibrated(),
		Seed:       5,
	})
	// A cross-pod flow requires updates in pod-0 domain, pod-1 domain and
	// the interconnect domain, exercising event forwarding.
	src := topology.HostName(0, 0, 0, 0)
	dst := topology.HostName(0, 1, 2, 0)
	results, err := n.RunFlows([]workload.Flow{{ID: 1, Src: src, Dst: dst, SizeKB: 64, Start: 0}}, RunOptions{})
	if err != nil {
		t.Fatalf("RunFlows: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("completed %d, want 1", len(results))
	}
	if results[0].RuleReused || results[0].SetupDelay == 0 {
		t.Fatalf("cross-domain flow should pay setup: %+v", results[0])
	}
	// All three domains must have processed the event.
	for _, d := range n.Domains {
		if d.Controllers[0].EventsDelivered == 0 {
			t.Errorf("domain %d never delivered the event", d.Index)
		}
	}
}

func TestCiceroRealCryptoEndToEnd(t *testing.T) {
	g := smallPod(t)
	n := buildNet(t, Config{
		Graph:      g,
		Protocol:   controlplane.ProtoCicero,
		Cost:       protocol.Calibrated(),
		CryptoReal: true,
		Seed:       9,
	})
	src := topology.HostName(0, 0, 0, 0)
	dst := topology.HostName(0, 0, 3, 0)
	results, err := n.RunFlows([]workload.Flow{{ID: 1, Src: src, Dst: dst, SizeKB: 64, Start: 0}}, RunOptions{})
	if err != nil {
		t.Fatalf("RunFlows: %v", err)
	}
	if len(results) != 1 || results[0].SetupDelay == 0 {
		t.Fatalf("real-crypto flow did not complete properly: %+v", results)
	}
	for _, sw := range n.Switches {
		if sw.UpdatesRejected != 0 {
			t.Errorf("switch %s rejected updates with honest controllers", sw.ID())
		}
	}
}

func TestCiceroRealCryptoAggregatedEndToEnd(t *testing.T) {
	g := smallPod(t)
	n := buildNet(t, Config{
		Graph:       g,
		Protocol:    controlplane.ProtoCicero,
		Aggregation: controlplane.AggController,
		Cost:        protocol.Calibrated(),
		CryptoReal:  true,
		Seed:        9,
	})
	src := topology.HostName(0, 0, 1, 0)
	dst := topology.HostName(0, 0, 2, 1)
	results, err := n.RunFlows([]workload.Flow{{ID: 1, Src: src, Dst: dst, SizeKB: 64, Start: 0}}, RunOptions{})
	if err != nil {
		t.Fatalf("RunFlows: %v", err)
	}
	if len(results) != 1 || results[0].SetupDelay == 0 {
		t.Fatalf("aggregated real-crypto flow failed: %+v", results)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Error("nil graph accepted")
	}
	g := smallPod(t)
	if _, err := Build(Config{Graph: g, Protocol: controlplane.ProtoCicero, ControllersPerDomain: 3}); err == nil {
		t.Error("cicero with 3 controllers accepted")
	}
	bad := Config{Graph: g, NumDomains: 2, DomainOf: func(n *topology.Node) int { return 5 }}
	if _, err := Build(bad); err == nil {
		t.Error("out-of-range DomainOf accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	g := smallPod(t)
	run := func() []FlowResult {
		n := buildNet(t, Config{Graph: g, Protocol: controlplane.ProtoCicero,
			Cost: protocol.Calibrated(), Seed: 11})
		res, err := n.RunFlows(testFlows(t, g, 25), RunOptions{})
		if err != nil {
			t.Fatalf("RunFlows: %v", err)
		}
		return res
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatal("different result counts")
	}
	for i := range a {
		if a[i].Completion != b[i].Completion || a[i].SetupDelay != b[i].SetupDelay {
			t.Fatalf("nondeterministic result at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
