package core

import (
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/dataplane"
	"cicero/internal/fabric"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/pki"
	"cicero/internal/topology"
)

// Domain is one update domain: a slice of the data plane plus its own
// control plane, atomic-broadcast group, and threshold key.
type Domain struct {
	Index       int
	Members     []pki.Identity
	Controllers []*controlplane.Controller
	GroupKey    *bls.GroupKey
	Shares      []bls.KeyShare
	Switches    []string
	// Quorum is the update quorum t = ⌊(n−1)/3⌋+1 the domain was
	// provisioned with (§3.2).
	Quorum int
	// Aggregator is the designated aggregator identity ("" in
	// switch-aggregation mode).
	Aggregator pki.Identity
	// MetaGenesis is the domain's threshold-signed root of trust (zero
	// value when Config.Metadata is off).
	MetaGenesis protocol.MetaEnvelope
	// Site is the graph node controllers of this domain are co-located
	// with (for latency derivation).
	Site string
}

// Network is an assembled deployment: a Provisioning and the node objects
// booted from it on one fabric.
type Network struct {
	Cfg Config
	// Fab is the transport every component was built against; it is the
	// simnet Network below or a live backend (Config.Fabric).
	Fab fabric.Fabric
	// Sim and Net are the discrete-event simulator pair; both are nil
	// when the deployment runs on a live fabric.
	Sim   *simnet.Simulator
	Net   *simnet.Network
	Graph *topology.Graph
	*Provisioning

	Switches map[string]*dataplane.Switch
	// epoch is each node's current boot epoch (absent: 0, its first boot).
	// A real node keeps this counter in stable storage.
	epoch map[fabric.NodeID]uint32
	// site maps every simnet node to its graph location.
	site map[string]string
	// distCache memoizes site-to-site fabric latencies.
	distCache map[[2]string]time.Duration

	results []FlowResult
	flowSeq uint64
}

// Build assembles a deployment from the config: one Provision, then every
// node booted at epoch 0.
func Build(cfg Config) (*Network, error) {
	cfg = cfg.Defaulted()
	n := &Network{
		Cfg:       cfg,
		Graph:     cfg.Graph,
		Switches:  make(map[string]*dataplane.Switch),
		epoch:     make(map[fabric.NodeID]uint32),
		site:      make(map[string]string),
		distCache: make(map[[2]string]time.Duration),
	}
	if cfg.Fabric != nil {
		// Live backend: components construct against the provided fabric;
		// latency and jitter are whatever the real transport imposes.
		n.Fab = cfg.Fabric
	} else {
		sim := simnet.NewSimulator(cfg.Seed)
		net := simnet.NewNetwork(sim, lanLatency)
		net.Latency = n.latency
		net.JitterFrac = cfg.Jitter
		n.Sim, n.Net, n.Fab = sim, net, net
	}
	p, err := Provision(cfg, n.Fab.Now())
	if err != nil {
		return nil, err
	}
	n.Provisioning = p
	// Every site before any boot: the simulator's latency function reads
	// them from the first message a booted node sends.
	for _, d := range p.Domains {
		for _, id := range d.Members {
			n.site[string(id)] = d.Site
		}
		for _, id := range d.Switches {
			n.site[id] = id
		}
	}
	for _, d := range p.Domains {
		for _, id := range d.Members {
			ctl, err := BootController(cfg, n.Fab, p, d.Index, id, 0)
			if err != nil {
				return nil, err
			}
			d.Controllers = append(d.Controllers, ctl)
		}
		for _, id := range d.Switches {
			sw, err := BootSwitch(cfg, n.Fab, p, id, 0)
			if err != nil {
				return nil, err
			}
			n.Switches[id] = sw
		}
	}
	return n, nil
}

// lanLatency is the simulator's one-way latency between co-located nodes
// (controller to controller of one domain, controller to its pod's switches),
// paid in addition to fabric path latency.
const lanLatency = 100 * time.Microsecond

// latency derives one-way message latency from the fabric: co-located
// nodes pay the LAN latency; remote pairs pay the fabric shortest-path
// latency plus the LAN hop.
func (n *Network) latency(from, to simnet.NodeID) time.Duration {
	sa, oka := n.site[string(from)]
	sb, okb := n.site[string(to)]
	if !oka || !okb {
		return -1 // default
	}
	if sa == sb {
		return lanLatency
	}
	return n.fabricDist(sa, sb) + lanLatency
}

// fabricDist memoizes shortest-path latency between graph sites.
func (n *Network) fabricDist(a, b string) time.Duration {
	key := [2]string{a, b}
	if a > b {
		key = [2]string{b, a}
	}
	if d, ok := n.distCache[key]; ok {
		return d
	}
	var d time.Duration
	if path := n.Graph.ShortestPath(a, b); path != nil {
		if lat, err := n.Graph.PathLatency(path); err == nil {
			d = lat
		}
	}
	n.distCache[key] = d
	return d
}

// SwitchCPUTotal sums simulated CPU time charged to all switches.
func (n *Network) SwitchCPUTotal() time.Duration {
	var total time.Duration
	for id := range n.Switches {
		total += n.Fab.BusyTotal(simnet.NodeID(id))
	}
	return total
}
