// Command cicero-sim runs an ad-hoc Cicero deployment: choose a topology,
// protocol, aggregation mode, domain layout and workload from flags, and
// get a flow-completion summary plus protocol counters.
//
// Usage:
//
//	cicero-sim -topology pod -protocol cicero -controllers 4 -flows 1000
//	cicero-sim -topology multidc -dcs 3 -domains-per-pod -workload webserver
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/metrics"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		topo        = flag.String("topology", "pod", "pod | pods2 | multidc")
		proto       = flag.String("protocol", "cicero", "centralized | crash | cicero")
		agg         = flag.String("aggregation", "switch", "switch | controller")
		controllers = flag.Int("controllers", 4, "controllers per domain")
		racks       = flag.Int("racks", 12, "racks per pod")
		dcs         = flag.Int("dcs", 3, "data centers (multidc)")
		domains     = flag.Bool("domains-per-pod", false, "one Cicero domain per pod (default single domain)")
		wl          = flag.String("workload", "hadoop", "hadoop | webserver")
		flows       = flag.Int("flows", 1000, "number of flows")
		seed        = flag.Int64("seed", 1, "simulation seed")
		teardown    = flag.Bool("teardown", false, "unamortized setup/teardown mode")
		realCrypto  = flag.Bool("real-crypto", false, "execute real BLS/Ed25519 operations")
	)
	flag.Parse()

	fab := topology.DefaultFabricConfig()
	fab.RacksPerPod = *racks
	fab.HostsPerRack = 2

	var (
		g          *topology.Graph
		err        error
		numDomains = 1
		domainOf   func(n *topology.Node) int
	)
	switch *topo {
	case "pod":
		g, err = topology.BuildSinglePod(fab)
	case "pods2":
		g, err = topology.BuildInterconnectedPods(topology.InterconnectPodsConfig{
			Fabric: fab, Pods: 2,
		})
		if *domains {
			numDomains = 3
			domainOf = core.ByPod(2, 2)
		}
	case "multidc":
		mdc := topology.DefaultMultiDCConfig()
		mdc.Fabric = fab
		mdc.DataCenters = *dcs
		mdc.PodsPerDC = 2
		g, err = topology.BuildMultiDC(mdc)
		if *domains {
			numDomains = *dcs*2 + 1
			domainOf = core.ByPod(2, *dcs*2)
		}
	default:
		fmt.Fprintf(os.Stderr, "cicero-sim: unknown topology %q\n", *topo)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cicero-sim: build topology: %v\n", err)
		return 1
	}

	var protoVal controlplane.Protocol
	switch *proto {
	case "centralized":
		protoVal = controlplane.ProtoCentralized
	case "crash":
		protoVal = controlplane.ProtoCrash
	case "cicero":
		protoVal = controlplane.ProtoCicero
	default:
		fmt.Fprintf(os.Stderr, "cicero-sim: unknown protocol %q\n", *proto)
		return 2
	}
	aggVal := controlplane.AggSwitch
	if *agg == "controller" {
		aggVal = controlplane.AggController
	}
	mixName := workload.Hadoop
	if *wl == "webserver" {
		mixName = workload.WebServer
	}
	mix, err := workload.MixFor(mixName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cicero-sim: %v\n", err)
		return 1
	}

	n, err := core.Build(core.Config{
		Graph:                g,
		Protocol:             protoVal,
		Aggregation:          aggVal,
		ControllersPerDomain: *controllers,
		NumDomains:           numDomains,
		DomainOf:             domainOf,
		PairRules:            *teardown,
		Cost:                 protocol.Calibrated(),
		CryptoReal:           *realCrypto,
		Seed:                 *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cicero-sim: build: %v\n", err)
		return 1
	}
	trace, err := workload.Generate(g, workload.Config{
		Mix: mix, Flows: *flows, MeanInterarrival: 4 * time.Millisecond, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cicero-sim: workload: %v\n", err)
		return 1
	}
	start := time.Now()
	results, err := n.RunFlows(trace, core.RunOptions{Teardown: *teardown})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cicero-sim: run: %v\n", err)
		return 1
	}

	var completion, setup metrics.Samples
	reused := 0
	for _, r := range results {
		completion.AddDuration(r.Completion)
		setup.AddDuration(r.SetupDelay)
		if r.RuleReused {
			reused++
		}
	}
	fmt.Printf("topology=%s protocol=%s agg=%s domains=%d controllers/domain=%d switches=%d\n",
		*topo, protoVal, *agg, numDomains, *controllers, len(n.Switches))
	fmt.Printf("flows=%d completed=%d reused-rules=%d wall=%v sim-time=%v\n",
		len(trace), len(results), reused, time.Since(start).Round(time.Millisecond), n.Sim.Now().Round(time.Millisecond))
	fmt.Printf("completion: %s\n", completion.Summary())
	fmt.Printf("setup:      %s\n", setup.Summary())

	var events, updates, acks uint64
	for _, d := range n.Domains {
		for _, ctl := range d.Controllers {
			events += ctl.EventsDelivered
			updates += ctl.UpdatesSigned
			acks += ctl.AcksReceived
		}
	}
	var applied, rejected uint64
	var cpu time.Duration
	for id, sw := range n.Switches {
		applied += sw.UpdatesApplied
		rejected += sw.UpdatesRejected
		cpu += n.Net.BusyTotal(simnet.NodeID(id))
	}
	fmt.Printf("control plane: events-delivered=%d updates-signed=%d acks=%d\n", events, updates, acks)
	fmt.Printf("data plane:    updates-applied=%d rejected=%d switch-cpu=%v\n",
		applied, rejected, cpu.Round(time.Millisecond))
	fmt.Printf("network:       %v\n", n.Net)
	return 0
}
