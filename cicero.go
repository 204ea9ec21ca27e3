// Package cicero is the public API of this repository: a from-scratch
// reproduction of "Consistent and Secure Network Updates Made Practical"
// (Lembke, Ravi, Roman, Eugster — Middleware '20).
//
// Cicero is an SD-WAN control plane in which network updates are
// consistent — ordered by an update scheduler so the data plane never
// transits loops, black holes, firewall bypasses or congestion — and
// secure — switches apply an update only when a quorum of
// t = ⌊(n−1)/3⌋+1 controllers threshold-signs it, with events totally
// ordered by Byzantine fault-tolerant atomic broadcast and membership
// changes re-dealing key shares without ever changing the public key
// switches hold.
//
// The package assembles deployments on a deterministic discrete-event
// simulator standing in for the paper's DeterLab testbed: topologies from
// internal/topology (Facebook fabric pods, Deutsche Telekom multi-DC),
// workloads from internal/workload (Hadoop and web-server mixes), and the
// full protocol stack from internal/{controlplane,dataplane,bft,tcrypto}.
//
// Quick start:
//
//	topo, _ := cicero.SinglePod(8, 2)
//	net, _ := cicero.New(cicero.Options{Topology: topo, Controllers: 4})
//	results, _ := net.Run([]cicero.Flow{{ID: 1, Src: cicero.Host(0,0,0,0), Dst: cicero.Host(0,0,5,1), SizeKB: 256}})
//
// See the examples/ directory for runnable scenarios and cmd/cicero-bench
// for the paper's evaluation harness.
package cicero

import (
	"fmt"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/protocol"
	"cicero/internal/routing"
	"cicero/internal/scheduler"
	"cicero/internal/simnet"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

// Protocol selects the control-plane protocol.
type Protocol = controlplane.Protocol

// Protocols.
const (
	// Centralized is the unreplicated baseline.
	Centralized = controlplane.ProtoCentralized
	// CrashTolerant replicates with atomic broadcast but does not
	// authenticate updates.
	CrashTolerant = controlplane.ProtoCrash
	// Cicero is the full protocol (default).
	Cicero = controlplane.ProtoCicero
)

// Aggregation selects where threshold-signature aggregation happens.
type Aggregation = controlplane.Aggregation

// Aggregation modes.
const (
	// SwitchAggregation has switches collect and combine shares (default).
	SwitchAggregation = controlplane.AggSwitch
	// ControllerAggregation designates an aggregator controller,
	// trading latency for switch CPU (§4.2 of the paper).
	ControllerAggregation = controlplane.AggController
)

// Flow is one network flow to route and complete.
type Flow = workload.Flow

// Result is a completed flow's measurements.
type Result = core.FlowResult

// Topology re-exports the graph type for custom topologies.
type Topology = topology.Graph

// Options assembles a deployment. The zero value plus a Topology gives a
// single-domain, 4-controller Cicero deployment with simulated crypto
// costs.
type Options struct {
	// Topology is the data plane (required). Build one with SinglePod,
	// InterconnectedPods, MultiDC, or construct a custom graph.
	Topology *topology.Graph
	// Protocol defaults to Cicero.
	Protocol Protocol
	// Aggregation defaults to SwitchAggregation.
	Aggregation Aggregation
	// Controllers per domain (default 4, the paper's setup).
	Controllers int
	// Domains splits the network into that many update domains using
	// DomainOf; both default to a single domain.
	Domains  int
	DomainOf func(n *topology.Node) int
	// RealCrypto executes real BLS threshold signatures and Ed25519
	// end to end (forged messages genuinely fail verification).
	RealCrypto bool
	// PairRules installs per-flow rules (required for Teardown runs).
	PairRules bool
	// Seed makes the whole simulation deterministic.
	Seed int64
}

// Network is an assembled deployment.
type Network struct {
	inner *core.Network
}

// New assembles a deployment.
func New(opt Options) (*Network, error) {
	inner, err := core.Build(core.Config{
		Graph:                opt.Topology,
		Protocol:             opt.Protocol,
		Aggregation:          opt.Aggregation,
		ControllersPerDomain: opt.Controllers,
		NumDomains:           opt.Domains,
		DomainOf:             opt.DomainOf,
		PairRules:            opt.PairRules,
		Cost:                 protocol.Calibrated(),
		CryptoReal:           opt.RealCrypto,
		Seed:                 opt.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("cicero: %w", err)
	}
	return &Network{inner: inner}, nil
}

// Run injects flows and runs the simulation to quiescence.
func (n *Network) Run(flows []Flow) ([]Result, error) {
	return n.inner.RunFlows(flows, core.RunOptions{})
}

// RunTeardown runs flows in the unamortized setup/teardown mode: rules
// are removed when each flow completes (requires Options.PairRules).
func (n *Network) RunTeardown(flows []Flow) ([]Result, error) {
	return n.inner.RunFlows(flows, core.RunOptions{Teardown: true})
}

// Stats summarizes protocol activity.
type Stats struct {
	EventsDelivered uint64
	UpdatesSigned   uint64
	UpdatesApplied  uint64
	UpdatesRejected uint64
	SwitchCPU       time.Duration
}

// Stats returns protocol counters accumulated so far.
func (n *Network) Stats() Stats {
	var s Stats
	for _, d := range n.inner.Domains {
		if len(d.Controllers) > 0 {
			s.EventsDelivered += d.Controllers[0].EventsDelivered
		}
		for _, ctl := range d.Controllers {
			s.UpdatesSigned += ctl.UpdatesSigned
		}
	}
	for _, sw := range n.inner.Switches {
		s.UpdatesApplied += sw.UpdatesApplied
		s.UpdatesRejected += sw.UpdatesRejected
	}
	s.SwitchCPU = n.inner.SwitchCPUTotal()
	return s
}

// Internal exposes the underlying assembly for advanced scenarios
// (membership changes, fault injection, direct switch inspection); the
// examples use it.
func (n *Network) Internal() *core.Network { return n.inner }

// SinglePod builds one Facebook-fabric server pod: racks top-of-rack
// switches under 4 edge switches (the paper's §6.2 topology).
func SinglePod(racks, hostsPerRack int) (*topology.Graph, error) {
	cfg := topology.DefaultFabricConfig()
	if racks > 0 {
		cfg.RacksPerPod = racks
	}
	if hostsPerRack > 0 {
		cfg.HostsPerRack = hostsPerRack
	}
	return topology.BuildSinglePod(cfg)
}

// InterconnectedPods builds pods joined by a redundant interconnect
// layer (the paper's §6.3 multi-domain topology).
func InterconnectedPods(pods, racks, hostsPerRack int) (*topology.Graph, error) {
	cfg := topology.DefaultFabricConfig()
	if racks > 0 {
		cfg.RacksPerPod = racks
	}
	if hostsPerRack > 0 {
		cfg.HostsPerRack = hostsPerRack
	}
	return topology.BuildInterconnectedPods(topology.InterconnectPodsConfig{
		Fabric: cfg,
		Pods:   pods,
	})
}

// MultiDC builds data centers at Deutsche Telekom backbone cities with
// WAN links (the paper's Fig. 12d topology).
func MultiDC(dataCenters, podsPerDC, racks int) (*topology.Graph, error) {
	cfg := topology.DefaultMultiDCConfig()
	cfg.DataCenters = dataCenters
	cfg.PodsPerDC = podsPerDC
	if racks > 0 {
		cfg.Fabric.RacksPerPod = racks
	}
	cfg.Fabric.HostsPerRack = 2
	return topology.BuildMultiDC(cfg)
}

// ByPod maps switches to one domain per pod; fabric-level switches go to
// the interconnect domain (the last index).
func ByPod(podsPerDC, interconnectDomain int) func(n *topology.Node) int {
	return core.ByPod(podsPerDC, interconnectDomain)
}

// Host returns the canonical host name for (dc, pod, rack, host).
func Host(dc, pod, rack, host int) string {
	return topology.HostName(dc, pod, rack, host)
}

// ToR returns the canonical top-of-rack switch name for (dc, pod, rack).
func ToR(dc, pod, rack int) string {
	return topology.ToRName(dc, pod, rack)
}

// HadoopWorkload generates the paper's Hadoop traffic mix over the
// topology's hosts.
func HadoopWorkload(topo *topology.Graph, flows int, seed int64) ([]Flow, error) {
	return workload.Generate(topo, workload.Config{
		Mix:              workload.HadoopMix(),
		Flows:            flows,
		MeanInterarrival: 4 * time.Millisecond,
		Seed:             seed,
	})
}

// WebWorkload generates the paper's web-server traffic mix.
func WebWorkload(topo *topology.Graph, flows int, seed int64) ([]Flow, error) {
	return workload.Generate(topo, workload.Config{
		Mix:              workload.WebServerMix(),
		Flows:            flows,
		MeanInterarrival: 4 * time.Millisecond,
		Seed:             seed,
	})
}

// Compile-time checks that re-exported helpers stay wired.
var (
	_ = scheduler.ReversePath{}
	_ = routing.ShortestPath{}
	_ simnet.Handler
)
