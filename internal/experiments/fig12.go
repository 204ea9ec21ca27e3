package experiments

import (
	"fmt"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/metrics"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

// Fig12a reproduces the network-update-time-versus-control-plane-size
// experiment: a single-switch update's latency from event to applied
// rule, for control planes of 1 (centralized) and 4..10 members.
func Fig12a(opt Options) (*Result, error) {
	opt = opt.Defaulted()
	cfg := topology.DefaultFabricConfig()
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = 1

	measure := func(proto controlplane.Protocol, agg controlplane.Aggregation, ctls int) (time.Duration, error) {
		g, err := topology.BuildSinglePod(cfg)
		if err != nil {
			return 0, err
		}
		n, err := core.Build(core.Config{
			Graph:                g,
			Protocol:             proto,
			Aggregation:          agg,
			ControllersPerDomain: ctls,
			Cost:                 calibrated,
			CryptoReal:           opt.CryptoReal,
			Seed:                 opt.Seed,
		})
		if err != nil {
			return 0, err
		}
		return n.MeasureUpdateTime(topology.HostName(0, 0, 0, 0), topology.HostName(0, 0, 1, 0))
	}

	tbl := metrics.NewTable("fig12a: update time vs control-plane size",
		"size", "centralized", "crash-tolerant", "cicero", "cicero-agg")
	central, err := measure(controlplane.ProtoCentralized, 0, 1)
	if err != nil {
		return nil, err
	}
	tbl.AddRow(1, central, "-", "-", "-")
	for n := 4; n <= 10; n++ {
		crash, err := measure(controlplane.ProtoCrash, 0, n)
		if err != nil {
			return nil, err
		}
		cic, err := measure(controlplane.ProtoCicero, controlplane.AggSwitch, n)
		if err != nil {
			return nil, err
		}
		cicAgg, err := measure(controlplane.ProtoCicero, controlplane.AggController, n)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(n, "-", crash, cic, cicAgg)
	}
	res := &Result{Name: "fig12a", Tables: []*metrics.Table{tbl}}
	res.Notes = append(res.Notes,
		note("paper: update time grows with control-plane size; cicero at n=10 is ≈2.5x the centralized baseline; crash-tolerant grows less (no authentication)"),
		quorumLabel(10))
	return res, nil
}

// Fig12b reproduces event locality: the share of the pod's events each
// control plane must process as the pod is divided into 1..10 domains,
// under the Hadoop and web-server mixes. The computation follows the
// paper's locality analysis: a flow event is processed by the domains of
// its endpoints' racks (rack-partitioned domains).
func Fig12b(opt Options) (*Result, error) {
	opt = opt.Defaulted()
	cfg := podConfig(opt)
	g, err := topology.BuildSinglePod(cfg)
	if err != nil {
		return nil, err
	}
	mixes := []workload.Mix{workload.HadoopMix(), workload.WebServerMix()}
	traces := make([][]workload.Flow, len(mixes))
	for i, mix := range mixes {
		flows, err := workload.Generate(g, workload.Config{
			Mix:              mix,
			Flows:            opt.Flows,
			MeanInterarrival: meanInterarrival(opt),
			Seed:             opt.Seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		traces[i] = flows
	}
	rackOf := func(host string) int {
		node, ok := g.Node(host)
		if !ok {
			return 0
		}
		return node.Rack
	}
	tbl := metrics.NewTable("fig12b: % of events handled per control plane",
		"domains", "single-domain(%)", "md-hadoop(%)", "md-webserver(%)")
	for domains := 1; domains <= 10; domains++ {
		row := []any{domains, 100.0}
		for i := range mixes {
			totalEvents := 0
			perDomain := make([]int, domains)
			for _, f := range traces[i] {
				src := rackOf(f.Src) * domains / cfg.RacksPerPod
				dst := rackOf(f.Dst) * domains / cfg.RacksPerPod
				totalEvents++
				perDomain[src]++
				if dst != src {
					perDomain[dst]++
				}
			}
			// Average share of total events a single control plane sees.
			sum := 0.0
			for _, c := range perDomain {
				sum += float64(c)
			}
			avg := 100 * sum / float64(domains) / float64(totalEvents)
			row = append(row, avg)
		}
		if domains == 1 {
			row[2], row[3] = 100.0, 100.0
		}
		tbl.AddRow(row...)
	}
	res := &Result{Name: "fig12b", Tables: []*metrics.Table{tbl}}
	res.Notes = append(res.Notes,
		note("paper: per-domain share drops sharply with diminishing returns; hadoop (5.8%% multi-domain) drops faster than web (31.6%%)"))
	return res, nil
}

// Fig12c compares one 12-controller domain against three 4-controller
// domains (two pods plus an interconnect domain) on the Hadoop mix.
func Fig12c(opt Options) (*Result, error) {
	opt = opt.Defaulted()
	fabric := podConfig(opt)
	if !opt.Quick {
		// Two full pods with a 12-member control plane is the paper's
		// heaviest single-domain setup; trim racks to keep runtimes sane
		// while preserving the structure.
		fabric.RacksPerPod = 20
	}
	icfg := topology.InterconnectPodsConfig{
		Fabric: fabric,
		Pods:   2,
	}
	g, err := topology.BuildInterconnectedPods(icfg)
	if err != nil {
		return nil, err
	}
	flows, err := workload.Generate(g, workload.Config{
		Mix:              workload.HadoopMix(),
		Flows:            opt.Flows,
		MeanInterarrival: meanInterarrival(opt),
		Seed:             opt.Seed,
	})
	if err != nil {
		return nil, err
	}

	type variant struct {
		name    string
		domains int
		ctls    int
		mapFn   func(n *topology.Node) int
		agg     controlplane.Aggregation
	}
	byPod := core.ByPod(2, 2)
	variants := []variant{
		{"cicero (1 domain, 12 ctl)", 1, 12, nil, controlplane.AggSwitch},
		{"cicero-agg (1 domain, 12 ctl)", 1, 12, nil, controlplane.AggController},
		{"cicero MD (3x4 ctl)", 3, 4, byPod, controlplane.AggSwitch},
		{"cicero-agg MD (3x4 ctl)", 3, 4, byPod, controlplane.AggController},
	}
	series := make(map[string]*metrics.Samples)
	var order []string
	for _, v := range variants {
		completion, _, _, err := runWorkloadCompletion(core.Config{
			Graph:                g,
			Protocol:             controlplane.ProtoCicero,
			Aggregation:          v.agg,
			ControllersPerDomain: v.ctls,
			NumDomains:           v.domains,
			DomainOf:             v.mapFn,
			Cost:                 calibrated,
			CryptoReal:           opt.CryptoReal,
			Seed:                 opt.Seed,
		}, flows, core.RunOptions{})
		if err != nil {
			return nil, err
		}
		series[v.name] = completion
		order = append(order, v.name)
	}
	res := &Result{Name: "fig12c"}
	res.Tables = append(res.Tables, cdfTable("fig12c: Hadoop completion, single vs multi-domain", series, order))
	res.Notes = append(res.Notes,
		note("paper: multi-domain (3x4) clearly beats one 12-member control plane thanks to parallel local processing"))
	return res, nil
}

// Fig12d reproduces the multi-data-center experiment on the Deutsche
// Telekom backbone: pods as domains versus one centralized controller for
// the whole network, web-server mix.
func Fig12d(opt Options) (*Result, error) {
	opt = opt.Defaulted()
	mdc := topology.DefaultMultiDCConfig()
	mdc.Fabric.HostsPerRack = 2
	if opt.Quick {
		mdc.Fabric.RacksPerPod = 4
		mdc.Fabric.SpinesPerPlane = 2
		mdc.DataCenters = 3
		mdc.PodsPerDC = 2
	} else {
		mdc.Fabric.RacksPerPod = 8
		mdc.DataCenters = len(topology.TelekomCities)
		mdc.PodsPerDC = 4
	}
	g, err := topology.BuildMultiDC(mdc)
	if err != nil {
		return nil, err
	}
	flows, err := workload.Generate(g, workload.Config{
		Mix:              workload.WebServerMix(),
		Flows:            opt.Flows,
		MeanInterarrival: meanInterarrival(opt),
		Seed:             opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	// One domain per pod plus a WAN/interconnect domain for spines+cores.
	podDomains := mdc.DataCenters * mdc.PodsPerDC
	domainOf := core.ByPod(mdc.PodsPerDC, podDomains)

	type variant struct {
		name    string
		proto   controlplane.Protocol
		agg     controlplane.Aggregation
		domains int
		ctls    int
		mapFn   func(n *topology.Node) int
	}
	variants := []variant{
		{"centralized", controlplane.ProtoCentralized, 0, 1, 1, nil},
		{"cicero MD", controlplane.ProtoCicero, controlplane.AggSwitch, podDomains + 1, 4, domainOf},
		{"cicero-agg MD", controlplane.ProtoCicero, controlplane.AggController, podDomains + 1, 4, domainOf},
	}
	series := make(map[string]*metrics.Samples)
	var order []string
	for _, v := range variants {
		completion, _, _, err := runWorkloadCompletion(core.Config{
			Graph:                g,
			Protocol:             v.proto,
			Aggregation:          v.agg,
			ControllersPerDomain: v.ctls,
			NumDomains:           v.domains,
			DomainOf:             v.mapFn,
			Cost:                 calibrated,
			CryptoReal:           opt.CryptoReal,
			Seed:                 opt.Seed,
		}, flows, core.RunOptions{})
		if err != nil {
			return nil, err
		}
		series[v.name] = completion
		order = append(order, v.name)
	}
	res := &Result{Name: "fig12d"}
	res.Tables = append(res.Tables, cdfTable(
		fmt.Sprintf("fig12d: web-server completion across %d data centers", mdc.DataCenters),
		series, order))
	res.Notes = append(res.Notes,
		note("paper: the centralized controller pays WAN latency on remote flows; cicero's per-pod domains beat it despite BFT+threshold overhead"))
	return res, nil
}
