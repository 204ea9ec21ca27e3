package core

import (
	"fmt"
	"time"

	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

// FlowResult records one flow's measured completion.
type FlowResult struct {
	Flow workload.Flow
	// SetupDelay is the time from arrival until the ingress rule was
	// ready (zero when rules were reused).
	SetupDelay time.Duration
	// Completion is the total flow completion time: setup + path latency
	// + transfer.
	Completion time.Duration
	// RuleReused marks flows that found their route pre-installed.
	RuleReused bool
}

// RunOptions tunes a flow run.
type RunOptions struct {
	// Teardown enables the unamortized setup/teardown mode of §6.2: after
	// each flow completes, its rules are removed via a teardown event.
	Teardown bool
	// ChargeForwarding bills each path switch the data-plane forwarding
	// cost of the flow (CostModel.PacketForwardPerKB); used by CPU
	// utilization measurements.
	ChargeForwarding bool
}

// RunFlows injects the flow trace and runs the simulation to completion,
// returning per-flow results in completion order.
func (n *Network) RunFlows(flows []workload.Flow, opts RunOptions) ([]FlowResult, error) {
	n.results = n.results[:0]
	for _, f := range flows {
		f := f
		n.Sim.At(f.Start, func() { n.startFlow(f, opts) })
	}
	if _, err := n.Sim.Run(); err != nil {
		return nil, fmt.Errorf("core: simulation: %w", err)
	}
	return append([]FlowResult(nil), n.results...), nil
}

// startFlow begins one flow: if the ingress switch has a matching rule the
// flow proceeds immediately (rule reuse); otherwise the table miss raises
// an event and the flow starts once the rule is installed. The reverse-
// path scheduler guarantees the ingress rule is installed last, so
// ingress-readiness implies path-readiness.
func (n *Network) startFlow(f workload.Flow, opts RunOptions) {
	path := n.Graph.ShortestPath(f.Src, f.Dst)
	if path == nil {
		n.record(f, 0, 0, false)
		return
	}
	switches := n.Graph.SwitchesOnPath(path)
	start := n.Sim.Now()
	if len(switches) == 0 {
		// Same-host or same-rack short-circuit: no updates needed.
		n.finishFlow(f, start, start, path, true, opts)
		return
	}
	ingress := n.Switches[switches[0]]
	if ingress == nil {
		n.record(f, 0, 0, false)
		return
	}
	if _, ok := ingress.Lookup(f.Src, f.Dst); ok {
		n.finishFlow(f, start, start, path, true, opts)
		return
	}
	ingress.Subscribe(f.Src, f.Dst, func(at simnet.Time) {
		n.finishFlow(f, start, at, path, false, opts)
	})
	ingress.PacketArrival(f.Src, f.Dst)
}

// finishFlow computes the analytic completion: setup delay + path latency
// + serialization at the bottleneck rate.
func (n *Network) finishFlow(f workload.Flow, start, ready simnet.Time, path []string, reused bool, opts RunOptions) {
	setup := ready - start
	var pathLat time.Duration
	if lat, err := n.Graph.PathLatency(path); err == nil {
		pathLat = lat
	}
	rate, err := n.Graph.PathMinCapacity(path)
	if err != nil || rate == 0 {
		// No link to read the bottleneck from (a one-host path crosses
		// none): only the host NIC bounds the flow.
		rate = topology.HostGbps
	}
	transfer := time.Duration(f.SizeKB * 1024 * 8 / (rate * 1e9) * float64(time.Second))
	completion := setup + pathLat + transfer
	n.record(f, setup, completion, reused)

	if opts.ChargeForwarding && n.Cfg.Cost.PacketForwardPerKB > 0 {
		cost := time.Duration(f.SizeKB * float64(n.Cfg.Cost.PacketForwardPerKB))
		for _, sw := range n.Graph.SwitchesOnPath(path) {
			n.Net.Charge(simnet.NodeID(sw), cost)
		}
	}

	if opts.Teardown {
		// Remove the flow's rules once it finishes (§6.2 unamortized).
		done := n.Sim.Now() + pathLat + transfer
		n.Sim.At(done, func() { n.teardownFlow(f, path) })
	}
}

// teardownFlow emits the teardown event from the ingress switch.
func (n *Network) teardownFlow(f workload.Flow, path []string) {
	switches := n.Graph.SwitchesOnPath(path)
	if len(switches) == 0 {
		return
	}
	ingress := n.Switches[switches[0]]
	if ingress == nil {
		return
	}
	n.flowSeq++
	// Cookie 0 deletes the pair's rules regardless of the installing
	// event (table-miss events carry cookie 0).
	ingress.EmitEvent(protocol.Event{
		ID:   openflow.MsgID{Origin: ingress.ID() + "/td", Seq: n.flowSeq},
		Kind: protocol.EventFlowTeardown,
		Src:  f.Src,
		Dst:  f.Dst,
	})
}

// record appends a flow result.
func (n *Network) record(f workload.Flow, setup, completion time.Duration, reused bool) {
	n.results = append(n.results, FlowResult{
		Flow:       f,
		SetupDelay: setup,
		Completion: completion,
		RuleReused: reused,
	})
}

// MeasureUpdateTime emits a single-switch update event and returns the
// time from event emission to rule installation — the metric of Fig. 12a.
// src and dst must be hosts whose path crosses exactly the switches to
// update; the measurement uses the flow machinery with fresh rules.
func (n *Network) MeasureUpdateTime(src, dst string) (time.Duration, error) {
	path := n.Graph.ShortestPath(src, dst)
	if path == nil {
		return 0, fmt.Errorf("core: no path %s -> %s", src, dst)
	}
	switches := n.Graph.SwitchesOnPath(path)
	if len(switches) == 0 {
		return 0, fmt.Errorf("core: no switches between %s and %s", src, dst)
	}
	ingress := n.Switches[switches[0]]
	start := n.Sim.Now()
	var applied simnet.Time
	doneAt := simnet.Time(-1)
	ingress.Subscribe(src, dst, func(at simnet.Time) {
		applied = at
		doneAt = at
	})
	ingress.PacketArrival(src, dst)
	if _, err := n.Sim.Run(); err != nil {
		return 0, err
	}
	if doneAt < 0 {
		return 0, fmt.Errorf("core: update %s -> %s never applied", src, dst)
	}
	return applied - start, nil
}
